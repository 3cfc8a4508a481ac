"""Abelian p-ramification for quadratic fields.

The torsion group T of the Galois group of the maximal abelian p-ramified
pro-p-extension is read off ray class groups mod p^n: at stabilization the
p-part of Cl_{p^n} splits into r = r_2 + 1 growing cyclic lines plus T.
Ray class groups are presented exactly from (O/p^n)^x (generators and
discrete logs via the p-adic logarithm) together with tracked principal
generators of class-group relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log, prod

from . import zlin
from .abgroup import AbelianGroupStructure
from .arith import kronecker, sqrt_mod_prime, vp
from .quadclass import (
    BSGS_CAP,
    ClassGroupPresentation,
    ClassNumberCapError,
    as_disc,
    bsgs_presentation,
    imaginary_presentation,
    isqrt_float,
    narrow_presentation,
    ordinary_class_group_real,
    ramified_principal_form,
)
from .quadforms import QuadElt, QuadForm, TrackedIdeal, reduce_imaginary


class PramError(RuntimeError):
    pass


def splitting_type(D, p: int) -> str:
    d = as_disc(D)
    k = kronecker(d.value, p)
    return {1: "split", -1: "inert", 0: "ramified"}[k]


def _radicand(D: int) -> int:
    return D // 4 if D % 4 == 0 else D


# --------------------------------------------------------------- residues

class ResidueRing:
    """O_K / p^n in the basis {1, omega}."""

    def __init__(self, D: int, p: int, n: int):
        self.D, self.p, self.n = D, p, n
        self.q = p ** n
        m = _radicand(D)
        self.m = m
        if D % 4 == 0:
            self.s, self.t = m, 0          # omega = sqrt(m)
        else:
            self.s, self.t = (m - 1) // 4, 1   # omega = (1 + sqrt(m)) / 2
        self.one = (1, 0)

    def mul(self, u, v):
        x1, y1 = u
        x2, y2 = v
        yy = y1 * y2
        return ((x1 * x2 + yy * self.s) % self.q,
                (x1 * y2 + x2 * y1 + yy * self.t) % self.q)

    def mul_exact(self, u, v):
        x1, y1 = u
        x2, y2 = v
        yy = y1 * y2
        return (x1 * x2 + yy * self.s, x1 * y2 + x2 * y1 + yy * self.t)

    def pow(self, u, e: int):
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, u)
            u = self.mul(u, u)
            e >>= 1
        return r

    def norm(self, u) -> int:
        x, y = u
        return x * x + self.t * x * y - self.s * y * y

    def is_unit(self, u) -> bool:
        return self.norm(u) % self.p != 0

    def inv(self, u):
        x, y = u
        nrm = self.norm(u) % self.q
        w = pow(nrm, -1, self.q)
        return ((x + self.t * y) * w % self.q, -y * w % self.q)

    def from_quadelt(self, alpha: QuadElt):
        # alpha = x + y*sqrt(D); sqrt(D) = 2*omega (D even) or 2*omega - 1
        if self.D % 4 == 0:
            c0, c1 = alpha.x, 2 * alpha.y
        else:
            c0, c1 = alpha.x - alpha.y, 2 * alpha.y
        out = []
        for c in (c0, c1):
            c = Fraction(c)
            if c.denominator % self.p == 0:
                raise PramError(f"element not p-integral: {alpha}")
            out.append(c.numerator * pow(c.denominator, -1, self.q) % self.q)
        return tuple(out)

    def from_integer(self, k: int):
        return (k % self.q, 0)


def _hnf2(cols: list) -> list:
    rows = [[c[i] for c in cols] for i in range(2)]
    return zlin.hnf_columns(rows)


def _reduce_vec(v, H):
    v = list(v)
    for i in range(2):
        k = v[i] // H[i][i]
        if k:
            for r_ in range(2):
                v[r_] -= k * H[r_][i]
    return tuple(v)


class ResidueUnits:
    """(O/p^n)^x: generators, relation matrix, and discrete logarithm.

    Decomposed as Q x U: Q the prime-to-p part (tabulated in the residue
    field), U the principal units, split into a tiny top layer and the
    1 + P^c0 base handled additively through the p-adic logarithm.
    """

    def __init__(self, D: int, p: int, n: int):
        self.ring = R = ResidueRing(D, p, n)
        self.D, self.p, self.n = D, p, n
        st = splitting_type(D, p)
        self.split = st
        self.e = 2 if st == "ramified" else 1
        if st == "ramified":
            self.c0 = 3 if p == 2 else (2 if p == 3 else 1)
        else:
            self.c0 = 2 if p == 2 else 1
        # theoretical order
        if st == "split":
            self.order = (p - 1) ** 2 * p ** (2 * (n - 1))
        elif st == "inert":
            self.order = (p * p - 1) * p ** (2 * (n - 1))
        else:
            self.order = (p - 1) * p ** (2 * n - 1)
        self._build()

    # -- pi-adic level lattices (columns include p^n Z^2)
    def _pi_cols(self):
        R = self.ring
        if R.D % 4 == 0:
            m = R.m
            if m % 2 == 0 and self.p == 2:
                return [(0, 1), (m, 0)]               # pi = omega = sqrt(m)
            if self.p == 2:
                return [(1, 1), (m, 1)]               # pi = 1 + sqrt(m)
            return [(0, 1), (m, 0)]                   # p odd | m, pi = sqrt(m)
        # D odd, omega = (1+sqrt(m))/2, pi = sqrt(m) = 2*omega - 1
        m = R.m
        return [(-1, 2), ((m - 1) // 2, 1)]

    def _level(self, k: int) -> list:
        q = self.ring.q
        if self.e == 1:
            s = self.p ** k
            cols = [(s, 0), (0, s)]
        else:
            s = self.p ** (k // 2)
            if k % 2 == 0:
                cols = [(s, 0), (0, s)]
            else:
                cols = [(s * a, s * b) for a, b in self._pi_cols()]
        return _hnf2(cols + [(q, 0), (0, q)])

    def _member(self, u, H) -> bool:
        v = ((u[0] - 1) % self.ring.q, u[1] % self.ring.q)
        return zlin.solve_lattice(H, list(v)) is not None

    # -- p-adic logarithm on 1 + P^c0, exact-integer series
    def _log(self, u):
        R, p, q = self.ring, self.p, self.ring.q
        w = ((u[0] - 1) % q, u[1] % q)
        # terms with floor(k*c0/e) - v_p(k) >= n vanish mod p^n; past kmax
        # that holds for every k
        kmax = (self.e * (self.n + 2 * self.n.bit_length() + 6)) // self.c0 + 8
        acc = [0, 0]
        power = w
        for k in range(1, kmax + 1):
            if k > 1:
                power = R.mul_exact(power, w)
            kv, kk = 0, k
            while kk % p == 0:
                kk //= p
                kv += 1
            ps = p ** kv
            if power[0] % ps or power[1] % ps:
                raise PramError("log series lost exactness")
            invk = pow(kk, -1, q)
            sgn = 1 if k % 2 == 1 else -1
            acc[0] = (acc[0] + sgn * (power[0] // ps) * invk) % q
            acc[1] = (acc[1] + sgn * (power[1] // ps) * invk) % q
        return (acc[0] % q, acc[1] % q)

    def _exp(self, b):
        R, p, q = self.ring, self.p, self.ring.q
        kmax = 4 * self.n + 10
        acc = [1 % q, 0]
        power = b
        fact_v, fact_u = 0, 1   # k! = p^fact_v * fact_u
        for k in range(1, kmax + 1):
            if k > 1:
                power = R.mul_exact(power, b)
            kk = k
            while kk % p == 0:
                kk //= p
                fact_v += 1
            fact_u = fact_u * kk % q
            ps = p ** fact_v
            if power[0] % ps or power[1] % ps:
                raise PramError("exp series lost exactness")
            w = pow(fact_u, -1, q)
            acc[0] = (acc[0] + (power[0] // ps) * w) % q
            acc[1] = (acc[1] + (power[1] // ps) * w) % q
        return (acc[0], acc[1])

    def _build(self):
        R, p, n, q = self.ring, self.p, self.n, self.ring.q
        # base: 1 + P^c0, additively P^c0 / p^n O through log/exp
        Lc0 = self._level(self.c0)
        b1 = (Lc0[0][0], Lc0[1][0])
        b2 = (Lc0[0][1], Lc0[1][1])
        g1, g2 = self._exp(b1), self._exp(b2)
        if self._log(g1) != (b1[0] % q, b1[1] % q) or \
                self._log(g2) != (b2[0] % q, b2[1] % q):
            raise PramError("log/exp round trip failed")
        base_rel = [zlin.solve_lattice(Lc0, [q, 0]),
                    zlin.solve_lattice(Lc0, [0, q])]
        assert None not in base_rel
        self._base_gens = [g1, g2]
        self._Lc0 = Lc0

        # middle layer: (1 + P^1) / (1 + P^c0)
        L1 = self._level(1)
        T = []
        for c in range(2):
            col = [Lc0[0][c], Lc0[1][c]]
            x = zlin.solve_lattice(L1, col)
            assert x is not None
            T.append(x)
        for c in ((q, 0), (0, q)):
            x = zlin.solve_lattice(L1, list(c))
            assert x is not None
            T.append(x)
        Hrel = zlin.hnf_columns([[t[i] for t in T] for i in range(2)])

        def canon_mid(u):
            v = ((u[0] - 1) % q, u[1] % q)
            x = zlin.solve_lattice(L1, list(v))
            assert x is not None, "element is not a principal unit"
            return _reduce_vec(x, Hrel)

        def lift_mid(lab):
            w0 = lab[0] * L1[0][0] + lab[1] * L1[0][1]
            w1 = lab[0] * L1[1][0] + lab[1] * L1[1][1]
            return ((1 + w0) % q, w1 % q)

        def op_mid(la, lb):
            return canon_mid(R.mul(lift_mid(la), lift_mid(lb)))

        ident = canon_mid(R.one)
        mid = ClassGroupPresentation(self.D, [], [], [], {ident: ()}, ident,
                                     lambda x: x, op_mid)
        for i in range(Hrel[0][0]):
            for j in range(Hrel[1][1]):
                lab = canon_mid(lift_mid((i, j)))
                if lab not in mid.dlog_table:
                    mid.adjoin(lab)
        self._mid = mid
        self._mid_gens = [lift_mid(lab) for lab in mid.gens]
        self._canon_mid = canon_mid

        # prime-to-p part in the residue field(s)
        Lrad = self._level(1)
        A = p ** vp(self.order, p)
        q0 = self.order // A
        self._A, self._q0 = A, q0

        def canon_rad(u):
            return _reduce_vec((u[0] % q, u[1] % q), Lrad)

        self._canon_rad = canon_rad
        if q0 > 1:
            lam = A * pow(A, -1, q0)

            def op_rad(la, lb):
                return canon_rad(R.mul(la, lb))

            identr = canon_rad(R.one)
            pq = ClassGroupPresentation(self.D, [], [], [], {identr: ()},
                                        identr, lambda x: x, op_rad)
            for i in range(Lrad[0][0]):
                for j in range(Lrad[1][1]):
                    lab = canon_rad((i, j))
                    if not R.is_unit(lab):
                        continue
                    if lab not in pq.dlog_table:
                        pq.adjoin(lab)
            assert pq.h == q0, (pq.h, q0)
            self._pq = pq
            self._q_gens = [R.pow(lab, lam) for lab in pq.gens]
            self._mu = q0 * pow(q0, -1, A) if A > 1 else 0
        else:
            self._pq = None
            self._q_gens = []
            self._mu = 1

        # assemble generators and relation columns
        nq, nm = len(self._q_gens), len(self._mid_gens)
        self.gens = self._q_gens + self._mid_gens + self._base_gens
        ng = len(self.gens)
        cols = []
        if self._pq is not None:
            for c in self._pq.relation_columns():
                cols.append(c + [0] * (nm + 2))
        for i, lab in enumerate(self._mid.gens):
            o_i = self._mid.orders[i]
            word = self._mid.words[i]
            elt = R.pow(self._mid_gens[i], o_i)
            for j, e in enumerate(word):
                if e:
                    elt = R.mul(elt, R.pow(R.inv(self._mid_gens[j]), e))
            tail = self._dlog_base(elt)
            col = [0] * nq + [0] * nm + [-tail[0], -tail[1]]
            col[nq + i] = o_i
            for j, e in enumerate(word):
                col[nq + j] -= e
            cols.append(col)
        for c in range(2):
            col = [0] * (nq + nm) + [base_rel[c][0], base_rel[c][1]]
            cols.append(col)
        self.rel_rows = [[c[i] for c in cols] for i in range(ng)]
        st = AbelianGroupStructure.from_relation_matrix(self.rel_rows, ng) \
            if ng else AbelianGroupStructure.trivial()
        if st.order != self.order:
            raise PramError(f"residue unit group order {st.order} != "
                            f"theoretical {self.order}")
        self.structure = st

    def _dlog_base(self, u):
        if not self._member(u, self._Lc0):
            raise PramError("element is not in the base layer")
        z = self._log(u)
        x = zlin.solve_lattice(self._Lc0, list(z))
        assert x is not None
        return (x[0], x[1])

    def _dlog_principal(self, u):
        """Exponents over mid + base generators for u in 1 + P."""
        lab = self._canon_mid(u)
        vec = self._mid.dlog(lab)
        R = self.ring
        elt = u
        for j, e in enumerate(vec):
            if e:
                elt = R.mul(elt, R.pow(R.inv(self._mid_gens[j]), e))
        tail = self._dlog_base(elt)
        return tuple(vec) + tail

    def dlog(self, u) -> tuple:
        R = self.ring
        if not R.is_unit(u):
            raise PramError(f"not a unit mod p^n: {u}")
        if self._pq is not None:
            vq = self._pq.dlog(self._canon_rad(u))
            xu = R.pow(u, self._mu)
        else:
            vq = ()
            xu = u
        return tuple(vq) + self._dlog_principal(xu)


def residue_units(D, p: int, n: int) -> AbelianGroupStructure:
    d = as_disc(D)
    return ResidueUnits(d.value, p, n).structure


# --------------------------------------------------- units and class data

def fundamental_unit(m: int, max_steps: int = 10 ** 6):
    """(x, y, norm) with eps = (x + y*sqrt(m))/2 the fundamental unit > 1."""
    if m <= 1:
        raise ValueError("need squarefree m > 1")
    D = m if m % 4 == 1 else 4 * m
    f = QuadForm(1, D % 2, ((D % 2) ** 2 - D) // 4)
    cur = TrackedIdeal.from_form(f).reduce()
    for _ in range(max_steps):
        cur = cur.rho_step()
        if abs(cur.form.a) != 1 or cur.gamma.y == 0:
            continue
        g = cur.gamma
        # convert to (x + y*sqrt(m))/2 coordinates; the positive embedding
        # of the first unit hit on the cycle is the fundamental one
        if m % 4 == 1:
            x, y = 2 * g.x, 2 * g.y
        else:
            x, y = 2 * g.x, 4 * g.y   # sqrt(D) = 2 sqrt(m)
        x, y = abs(Fraction(x)), abs(Fraction(y))
        assert x.denominator == 1 and y.denominator == 1
        x, y = int(x), int(y)
        nrm = (x * x - m * y * y) // 4
        assert nrm in (1, -1), (m, x, y, nrm)
        return x, y, nrm
    raise PramError(f"fundamental unit search exhausted for m={m}")


def _coprime_rep(f: QuadForm, p: int) -> QuadForm:
    """SL2-equivalent form with positive first coefficient coprime to p."""
    if f.a % p and f.a > 0:
        return f
    for x in range(1, 3 * p + 3):
        for y in range(0, 3 * p + 3):
            if gcd(x, y) != 1:
                continue
            a2 = f.a * x * x + f.b * x * y + f.c * y * y
            if a2 > 0 and a2 % p:
                _, u, v = zlin.xgcd(x, y)
                # matrix ((x, -v), (y, u)) has det x*u + y*v = 1
                M = (x, -v, y, u)
                return _transform(f, M)
    raise PramError(f"no representation coprime to {p} found for {f}")


def _transform(f: QuadForm, M) -> QuadForm:
    p_, q_, r_, s_ = M
    a = f.a * p_ * p_ + f.b * p_ * r_ + f.c * r_ * r_
    b = 2 * f.a * p_ * q_ + f.b * (p_ * s_ + q_ * r_) + 2 * f.c * r_ * s_
    c = f.a * q_ * q_ + f.b * q_ * s_ + f.c * s_ * s_
    return QuadForm(a, b, c)


def _tracked_pos(t: TrackedIdeal) -> TrackedIdeal:
    return t if t.form.a > 0 else t.rho_step()


def _tracked_pow(t: TrackedIdeal, e: int) -> TrackedIdeal:
    assert e >= 1
    result = None
    base = t
    while e:
        if e & 1:
            result = base if result is None else \
                _tracked_pos(result.reduce()).mul(_tracked_pos(base.reduce()))
        e >>= 1
        if e:
            b = _tracked_pos(base.reduce())
            base = b.mul(b)
    return result.reduce()


def full_imaginary_presentation(D: int,
                                bsgs_cap: int = BSGS_CAP) -> ClassGroupPresentation:
    """Presentation of the full imaginary class group (BSGS when viable)."""
    if -D <= 4 * 10 ** 5:
        return imaginary_presentation(D)
    return bsgs_presentation(D, bsgs_cap)


@dataclass
class _ClassData:
    D: int
    p: int
    pres: ClassGroupPresentation
    h_ord: int
    alphas: list          # per generator: (word-corrected) QuadElt + norms
    norm_adjust: list     # per generator: list of (a_j, w_ij) to divide out
    units: list           # QuadElt global units (-1, eps, zeta)
    ram_extra: tuple | None   # real only: (word vector, QuadElt, adjust)


def _relation_alpha(pres: ClassGroupPresentation, forms: list, i: int):
    """Generator of I_i^{o_i} * prod_j conj(I_j)^{w_ij} (tracked walk)."""
    t = _tracked_pow(TrackedIdeal.from_form(forms[i]), pres.orders[i])
    adjust = []
    for j, e in enumerate(pres.words[i]):
        if e:
            tj = _tracked_pow(TrackedIdeal.from_form(forms[j].inverse()), e)
            t = _tracked_pos(t.reduce()).mul(_tracked_pos(tj.reduce()))
            adjust.append((forms[j].a, e))
    return t.reduce().principal_generator(), adjust


def _class_data(D: int, p: int) -> _ClassData:
    DD = D
    units: list[QuadElt] = [QuadElt.integer(-1, DD)]
    if D < 0:
        pres = full_imaginary_presentation(D)
        h_ord = pres.h
        ram_extra = None
        if D == -3:
            units.append(QuadElt(Fraction(1, 2), Fraction(1, 2), D))
        if D == -4:
            units.append(QuadElt(Fraction(0), Fraction(1, 2), D))
    else:
        pres = narrow_presentation(D)
        h_ord = ordinary_class_group_real(as_disc(D)).order
        m = _radicand(D)
        x, y, _ = fundamental_unit(m)
        if D % 4 == 0:
            units.append(QuadElt(Fraction(x, 2), Fraction(y, 4), D))
        else:
            units.append(QuadElt(Fraction(x, 2), Fraction(y, 2), D))
        ram_extra = None
    forms = [_coprime_rep(f, p) for f in pres.gens]
    alphas = []
    norm_adjust = []
    for i in range(len(pres.gens)):
        alpha, adjust = _relation_alpha(pres, forms, i)
        alphas.append(alpha)
        norm_adjust.append(adjust)
    if D > 0:
        # the ramified principal class is ordinary-trivial: lift the
        # relation "prod I_j^{v_j} is principal" with an explicit generator
        vec = pres.dlog(ramified_principal_form(D))
        t = None
        for j, e in enumerate(vec):
            if e:
                tj = _tracked_pow(TrackedIdeal.from_form(forms[j]), e)
                t = tj if t is None else \
                    _tracked_pos(t.reduce()).mul(_tracked_pos(tj.reduce()))
        alpha = t.reduce().principal_generator() if t is not None \
            else QuadElt.one(D)
        ram_extra = (vec, alpha, [])
    return _ClassData(D, p, pres, h_ord, alphas, norm_adjust, units, ram_extra)


# ------------------------------------------------------- ray class groups

@dataclass
class RayClassGroup:
    D: int
    p: int
    n: int
    structure: AbelianGroupStructure
    unit_image_order: int
    residue_order: int

    @property
    def order(self) -> int:
        return self.structure.order


def ray_class_group(D, p: int, n: int,
                    class_data: _ClassData | None = None) -> RayClassGroup:
    d = as_disc(D)
    cd = class_data or _class_data(d.value, p)
    if n == 0:
        st = cd.pres.structure() if d.value < 0 else \
            ordinary_class_group_real(d)
        return RayClassGroup(d.value, p, 0, st, 1, 1)
    G = ResidueUnits(d.value, p, n)
    R = G.ring
    ng, t = len(G.gens), len(cd.pres.gens)
    g_cols = [[G.rel_rows[i][j] for i in range(ng)]
              for j in range(len(G.rel_rows[0]))]
    unit_cols = [list(G.dlog(R.from_quadelt(u))) for u in cd.units]
    cols = [c + [0] * t for c in g_cols + unit_cols]

    def rel_element(alpha, adjust):
        elt = R.from_quadelt(alpha)
        for a_j, e in adjust:
            if e:
                elt = R.mul(elt, R.pow(R.inv(R.from_integer(a_j)), e))
        return elt

    for i in range(t):
        elt = rel_element(cd.alphas[i], cd.norm_adjust[i])
        col = [-x for x in G.dlog(elt)] + [0] * t
        col[ng + i] = cd.pres.orders[i]
        for j, e in enumerate(cd.pres.words[i]):
            col[ng + j] -= e
        cols.append(col)
    if cd.ram_extra is not None:
        vec, alpha, adjust = cd.ram_extra
        col = [-x for x in G.dlog(rel_element(alpha, adjust))] + [0] * t
        for j, e in enumerate(vec):
            col[ng + j] += e
        cols.append(col)
    rows = [[c[i] for c in cols] for i in range(ng + t)]
    st = AbelianGroupStructure.from_relation_matrix(rows, ng + t)
    # exact order identity of the ray class sequence
    urows = [[c[i] for c in g_cols + unit_cols] for i in range(ng)]
    quot = AbelianGroupStructure.from_relation_matrix(urows, ng)
    im_units = G.order // quot.order
    if st.order * im_units != cd.h_ord * G.order:
        raise PramError(f"ray class order identity fails for D={d.value}, "
                        f"p={p}, n={n}")
    return RayClassGroup(d.value, p, n, st, im_units, G.order)


# ------------------------------------------------------------- torsion T

@dataclass
class TorsionReport:
    D: int
    p: int
    tor_structure: AbelianGroupStructure
    vp: int
    w_order: int
    c_tilde: float
    stabilized_level: int


def _drop_lines(st: AbelianGroupStructure, p: int, r: int) -> tuple:
    divs = list(st.p_part(p).divisors)
    return tuple(divs[r:])


def _default_nmax(p: int) -> int:
    return 32 if p == 2 else (16 if p == 3 else 8)


def w_group(D, p: int) -> int:
    d = as_disc(D)
    m = _radicand(d.value)
    if p == 2:
        return 2 if m % 2 == 1 and m % 8 in (1, 7) else 1
    if p == 3:
        if m == -3:
            return 1
        if m % 3 == 0 and (m // 3) % 3 == 2:
            return 3
        return 1
    return 1


def tor_report(D, p: int, n_max: int | None = None,
               class_data: _ClassData | None = None) -> TorsionReport:
    d = as_disc(D)
    r = 2 if d.value < 0 else 1
    cd = class_data or _class_data(d.value, p)
    n_max = n_max or _default_nmax(p)
    for attempt in range(2):
        prev = None
        prev_T = None
        for n in range(2, n_max + 1):
            ray = ray_class_group(d.value, p, n, cd)
            T = _drop_lines(ray.structure, p, r)
            if prev is not None:
                inc = vp(ray.order, p) - vp(prev.order, p)
                if inc == r and T == prev_T:
                    v = vp(prod(T), p)
                    ct = v * log(p) / log(isqrt_float(abs(d.value)))
                    return TorsionReport(d.value, p,
                                         AbelianGroupStructure(T), v,
                                         w_group(d.value, p), ct, n)
            prev, prev_T = ray, T
        n_max *= 2
    raise PramError(f"torsion did not stabilize for D={d.value}, p={p}")


def ktilde_index(D, p: int) -> int:
    """[K~ cap H : K] = #Cl_p * #W / #T for imaginary D."""
    d = as_disc(D)
    assert d.value < 0
    pres = full_imaginary_presentation(d.value)
    cd = _class_data(d.value, p)
    rep = tor_report(d.value, p, class_data=cd)
    clp = prod(pres.structure().p_part(p).divisors)
    num = clp * rep.w_order
    den = rep.tor_structure.order
    if num % den:
        raise PramError(f"#Cl_p * #W = {num} not divisible by #T = {den}")
    return num // den


# -------------------------------------------------------- S-class groups

def prime_over(D: int, p: int) -> QuadForm | None:
    """Form (p, b, c) of a prime above p; None if p is inert."""
    st = splitting_type(D, p)
    if st == "inert":
        return None
    if st == "split":
        if p == 2:
            return QuadForm(2, 1, (1 - D) // 8)
        b = sqrt_mod_prime(D, p)
        if (b - D) % 2:
            b += p
        return QuadForm(p, b, (b * b - D) // (4 * p))
    if p == 2:
        m = _radicand(D)
        if m % 2 == 0:
            return QuadForm(2, 0, -m // 2)
        return QuadForm(2, 2, (1 - m) // 2)
    if D % 2 == 0:
        return QuadForm(p, 2 * p, p - _radicand(D) // p)
    return QuadForm(p, p, (p * p - D) // (4 * p))


@dataclass
class SClassGroup:
    D: int
    p: int
    structure: AbelianGroupStructure
    s_count: int


def s_class_group(D, p: int) -> SClassGroup:
    d = as_disc(D)
    assert d.value < 0, "S-class groups implemented for imaginary fields"
    pres = full_imaginary_presentation(d.value)
    st = splitting_type(d.value, p)
    if st == "inert":
        return SClassGroup(d.value, p, pres.structure(), 1)
    f = reduce_imaginary(prime_over(d.value, p))
    vec = list(pres.dlog(f))
    ngen = len(pres.gens)
    if ngen == 0:
        return SClassGroup(d.value, p, AbelianGroupStructure.trivial(),
                           2 if st == "split" else 1)
    cols = pres.relation_columns() + [vec]
    rows = [[c[i] for c in cols] for i in range(ngen)]
    return SClassGroup(d.value, p,
                       AbelianGroupStructure.from_relation_matrix(rows, ngen),
                       2 if st == "split" else 1)


def reflection_check(D, p: int = 2) -> bool:
    """rk_p(T^ord) = rk_p(Cl^{S,res}) + #S - 1 (imaginary, mu_p in K)."""
    d = as_disc(D)
    s = s_class_group(d.value, p)
    rep = tor_report(d.value, p)
    return rep.tor_structure.p_rank(p) == \
        s.structure.p_rank(p) + s.s_count - 1


@dataclass
class RankReport:
    D: int
    p: int
    rk_t: int
    rk_cl: int
    s_count: int
    upper_ok: bool     # rk T <= rk Cl + r1 + r2 - 1 + #S
    lower_ok: bool     # rk Cl <= rk T + r2 + 1


def rank_inequalities(D, p: int) -> RankReport:
    d = as_disc(D)
    if d.value < 0:
        r1, r2 = 0, 1
        cl = full_imaginary_presentation(d.value).structure()
    else:
        r1, r2 = 2, 0
        from .quadclass import narrow_class_group_real
        cl = narrow_class_group_real(d)
    rep = tor_report(d.value, p)
    sc = 2 if splitting_type(d.value, p) == "split" else 1
    rk_t = rep.tor_structure.p_rank(p)
    rk_cl = cl.p_rank(p)
    return RankReport(d.value, p, rk_t, rk_cl, sc,
                      rk_t <= rk_cl + r1 + r2 - 1 + sc,
                      rk_cl <= rk_t + r2 + 1)


# ------------------------------------------------------------------ scans

@dataclass
class TorRecord:
    D: int
    m: int
    vptor: int
    cp: float
    structure: tuple | None
    error: str | None = None


def _fundamental_neg(d: int) -> bool:
    from .arith import is_squarefree
    if d % 4 == 3:
        return is_squarefree(d)
    if d % 4 == 0:
        k = d // 4
        return k % 4 in (1, 2) and is_squarefree(k)
    return False


def program_vptor(D: int, p: int, n: int,
                  class_data: _ClassData | None = None) -> int:
    """v_p(#Cl_{p^n} / largest-divisor) - (n-1), the printed statistic."""
    ray = ray_class_group(D, p, n, class_data)
    divs = ray.structure.divisors
    top = divs[0] if divs else 1
    return vp(ray.order, p) - vp(top, p) - (n - 1)


def tor_scan(lo: int, hi: int, p: int, n: int | None = None,
             mode: str = "imaginary") -> list[TorRecord]:
    if mode == "family":
        raise ValueError("use tor_family for the fixed-family walk")
    n = n or (20 if p == 2 else 8)
    out = []
    vp_max = 0
    for d in range(lo, hi + 1):
        if not _fundamental_neg(d):
            continue
        D = -d
        m = _radicand(D)
        try:
            v = program_vptor(D, p, n)
        except (PramError, ClassNumberCapError) as exc:
            out.append(TorRecord(D, m, 0, 0.0, None, str(exc)))
            continue
        if v > vp_max:
            vp_max = v
        if v >= max(vp_max, 1):
            cp = v * log(p) / log(isqrt_float(d))
            out.append(TorRecord(D, m, v, cp, None))
    return out


def merge_tor_maxima(shards: list[list[TorRecord]]) -> list[TorRecord]:
    out = []
    vp_max = 0
    for shard in shards:
        for r in shard:
            if r.error is not None:
                out.append(r)
                continue
            if r.vptor > vp_max:
                vp_max = r.vptor
            if r.vptor >= max(vp_max, 1):
                out.append(r)
    return out


def family_radicands(count: int) -> list[int]:
    """m_N = +/- product of the first N odd primes, sign making m = 1 mod 4."""
    from .arith import is_prime
    out = []
    prod = 1
    ell = 1
    for _ in range(count):
        ell += 2
        while not is_prime(ell):
            ell += 2
        prod *= ell
        out.append(prod if prod % 4 == 1 else -prod)
    return out


def tor_family(p: int, count: int) -> list[TorsionReport]:
    """Torsion along the odd-primorial family, N = 1..count."""
    assert p == 2, "the tabulated family is the p = 2 one"
    return [tor_report(m, p) for m in family_radicands(count)]
