"""Abelian p-ramification for quadratic fields.

The torsion group T of the Galois group of the maximal abelian p-ramified
pro-p-extension is read off ray class groups mod p^n: at stabilization the
p-part of Cl_{p^n} splits into r = r_2 + 1 growing cyclic lines plus T.
Ray class groups are presented exactly from (O/p^n)^x together with the
images in (O/p^n)^x of the global units and of the generator of each
class-group relation, which the cycle and relation walks carry locally
above p (a valuation at each prime above p and a unit mod p^n), never as
exact elements. (O/p^n)^x has two layers: (O/P^c0)^x, enumerated point by
point, over the base 1 + P^c0, which the p-adic logarithm makes additive.

Every result here reads p-parts only, so for imaginary D the class data
present only the p-Sylow subgroup Cl_p of Cl: its preimage in Cl_{p^n}
has index [Cl : Cl_p], prime to p, so the two share their p-part (Cohen,
GTM 138, ch. 5).  They read a presentation only through its generators,
relation columns, structure and quotient by one class (quadclass's
Presentation): Cl_2 comes on a genus basis, with only 2Cl_2 tabulated,
and an odd Cl_p or a real narrow group from a staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import gcd, log, prod
from typing import Iterable, Iterator

from . import zlin
from .abgroup import AbelianGroupStructure, power
from .arith import is_prime, kronecker, sqrt_mod_prime, vp
from .quadclass import (
    ClassGroupPresentation,
    ClassNumberCapError,
    Discriminant,
    Presentation,
    as_disc,
    discriminant_from_value,
    full_imaginary_presentation,
    isqrt_float,
    narrow_presentation,
    prime_form,
    radicand_of,
    ramified_principal_form,
)
from .quadforms import QuadForm, TrackedIdeal, principal_form


class PramError(RuntimeError):
    pass


def splitting_type(D: int, p: int) -> str:
    return {1: "split", -1: "inert", 0: "ramified"}[kronecker(D, p)]


# --------------------------------------------------------------- residues

class ResidueRing:
    """O_K / p^n in the basis {1, omega}."""

    def __init__(self, D: int, p: int, n: int):
        self.D, self.p, self.n = D, p, n
        self.q = p ** n
        m = radicand_of(D)
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


def _uniformizer(R: ResidueRing) -> tuple:
    """pi = x + y*omega generating the prime above a ramified p."""
    if R.D % 4:
        return (-1, 2)        # p odd | m, pi = sqrt(m) = 2*omega - 1
    if R.p == 2 and R.m % 2:
        return (1, 1)         # m = 3 mod 4, pi = 1 + sqrt(m)
    return (0, 1)             # p | m, pi = omega = sqrt(m)


def top_level(p: int) -> int:
    """The last ray class level n: the modulus of every field's class data
    and the last level tor_report tries."""
    return 64 if p == 2 else (32 if p == 3 else 16)


def _check_modulus(p: int, n: int) -> None:
    """ValueError unless p is a prime up to 31 and 1 <= n <= top_level(p):
    the modulus p^n of every (O/p^n)^x and ray class group here.  The
    (O/P^c0)^x box of a ring holds up to p^2 points and units_mod keeps
    256 rings: about 0.4 MB each at p = 31 and 4.4 MB at p = 101, and one
    field at p = 1009 took 690 MB, so a larger p is refused before any
    ring is built."""
    if not (is_prime(p) and p <= 31 and 1 <= n <= top_level(p)):
        raise ValueError(f"the modulus p^n needs a prime p and n >= 1, "
                         f"with p <= 31 and n <= top_level(p) = "
                         f"{top_level(p)}, got p={p}, n={n}")


def _reduce_vec(v, H):
    """v reduced into the box of the echelon basis H of a rank-2 lattice."""
    for i, h in enumerate(H):
        k = v[i] // h[i]
        if k:
            v = [a - k * b for a, b in zip(v, h)]
    return tuple(v)


@cache
def _series_terms(p: int, n: int, e: int, c0: int) -> tuple:
    """The p-adic log on 1 + P^c0 and exp on P^c0 mod q = p^n, as sums
    sum_k c_k x^k / p^v_k over tables of (p^v_k, c_k), k = 1, 2, ...:
    k = p^v_k * u_k and c_k = +-1/u_k mod q for log(1 + x), k! = p^v_k *
    u_k and c_k = 1/u_k mod q for exp(x) - 1.  Each table comes as (Q,
    terms) with Q = q * max p^v_k, the precision `ResidueUnits._series`
    keeps x^k at.  They depend only on p, n, the ramification index e
    and c0, so rings share them."""
    q = p ** n

    def series(terms):
        return q * max([1] + [pv for pv, _ in terms]), tuple(terms)

    # the log term k vanishes mod p^n when floor(k*c0/e) - v_p(k) >= n,
    # as x^k / p^v_p(k) lies in P^(k*c0 - e*v_p(k)); past kmax that holds
    # for every k, so the table ends at the last k <= kmax it misses
    kmax = (e * (n + 2 * n.bit_length() + 6)) // c0 + 8
    last = max((k for k in range(1, kmax + 1) if k * c0 // e - vp(k, p) < n),
               default=0)
    log_terms = []
    for k in range(1, last + 1):
        v, u = _split_off(p, k)
        log_terms.append((p ** v, (-1) ** (k + 1) * pow(u, -1, q)))
    # the exp term x^k / k! lies in P^(k*c0 - e*v_p(k!)) and vanishes when
    # floor(k*c0/e) - v_p(k!) >= n, as it does for every k past 4n + 10;
    # that table ends at the last k <= 4n + 10 it misses
    exp_terms, fv, fu, last = [], 0, 1, 0
    for k in range(1, 4 * n + 11):
        v, u = _split_off(p, k)
        fv, fu = fv + v, fu * u % q
        exp_terms.append((p ** fv, pow(fu, -1, q)))
        if k * c0 // e - fv < n:
            last = k
    return series(log_terms), series(exp_terms[:last])


class ResidueUnits:
    """(O/p^n)^x: generators, relation matrix, and discrete logarithm.

    Two layers: the top (O/P^c0)^x, whose classes are the unit points of
    the box of the P^c0 lattice (|O/P^c0| points: p^2 for odd unramified
    p, at most 16 for p = 2), enumerated into one ClassGroupPresentation;
    and the base 1 + P^c0, handled additively through the p-adic
    logarithm. A top relation holds mod P^c0 only, so its column carries
    the base log of the quotient.

    `dlog` looks the unit's point of the box up in a table built once per
    group, which holds its top exponents and the inverse of their word in
    the top generators; one product takes the unit into the base, whose
    log, a short series at fixed precision, has its coordinates over the
    P^c0 lattice by two exact divisions.

    The group depends only on the ring O/p^n, hence only on D mod 4p^n;
    `units_mod` builds it once per ring per process.
    """

    def __init__(self, D: int, p: int, n: int):
        _check_modulus(p, n)
        self.ring = ResidueRing(D, p, n)
        self.D, self.p, self.n = D, p, n
        st = splitting_type(D, p)
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
        self._log_series, self._exp_series = _series_terms(p, n, self.e,
                                                           self.c0)
        self._build()

    def _series(self, x, series):
        """sum_k c_k x^k / p^v_k mod q over the terms (p^v_k, c_k) of
        series = (Q, terms), with x^k kept mod Q: p^v_k | Q, so p^v_k
        divides x^k exactly when it divides x^k mod Q, and then their
        quotients agree mod q.  PramError unless p^v_k divides x^k."""
        R = self.ring
        Q, terms = series
        s, t = R.s, R.t
        a, b = x0, x1 = x
        s0 = s1 = 0
        for k, (pv, c) in enumerate(terms):
            if k:
                bb = b * x1
                a, b = (a * x0 + bb * s) % Q, (a * x1 + b * x0 + bb * t) % Q
            if a % pv or b % pv:
                raise PramError("p-adic series lost exactness")
            s0 += a // pv * c
            s1 += b // pv * c
        return (s0 % R.q, s1 % R.q)

    def _log(self, u):
        q = self.ring.q
        return self._series(((u[0] - 1) % q, u[1] % q), self._log_series)

    def _exp(self, b):
        s0, s1 = self._series(b, self._exp_series)
        return ((1 + s0) % self.ring.q, s1)

    def _build(self):
        R, p, q = self.ring, self.p, self.ring.q
        # base: 1 + P^c0, additively P^c0 / p^n O through log/exp; the
        # lattice P^c0 + p^n O is p^k O, or p^k P for odd c0 = 2k + 1
        # above a ramified p, whose columns are pi and pi * omega
        k = self.c0 // self.e
        cols = [(1, 0), (0, 1)]
        if self.c0 % self.e:
            pi = _uniformizer(R)
            cols = [pi, R.mul_exact(pi, (0, 1))]
        cols = [(p ** k * a, p ** k * b) for a, b in cols] + [(q, 0), (0, q)]
        self._Lc0 = Lc0 = tuple(map(tuple, zlin.hnf_columns(cols)))
        b1, b2 = Lc0
        g1, g2 = self._exp(b1), self._exp(b2)
        if self._log(g1) != (b1[0] % q, b1[1] % q) or \
                self._log(g2) != (b2[0] % q, b2[1] % q):
            raise PramError("log/exp round trip failed")

        # top: (O/P^c0)^x, the unit points of the box of Lc0
        def canon(u):
            return _reduce_vec(u, Lc0)

        def op(a, b):
            return canon(R.mul(a, b))

        box = ((i, j) for i in range(Lc0[0][0]) for j in range(Lc0[1][1]))
        units = list(filter(R.is_unit, box))
        top = ClassGroupPresentation.staircase(canon(R.one), canon, op, units)
        self._top = top
        # each unit point -> (its top exponents v, 1 / prod_j top.gens[j]^v_j
        # mod q), which takes a unit on that point into the base
        self._table = {}
        for c in units:
            v, w = top.dlog(c), R.one
            for g, e in zip(top.gens, v):
                if e:
                    w = R.mul(w, power(g, e, R.mul))
            self._table[c] = (v, R.inv(w))

        # relations: g_i^{o_i} = prod_j g_j^{w_ij} holds mod P^c0 only,
        # so each top column carries the base log of the quotient, the
        # base part of dlog(g_i^{o_i}); tuples, because one group is shared
        # by every field of the ring
        self.gens = (*top.gens, g1, g2)
        nt = len(top.gens)
        cols = [col + [-e for e in self.dlog(power(g, o, R.mul))[nt:]]
                for col, g, o in zip(top.relation_columns(), top.gens,
                                     top.orders)]
        cols += [[0] * nt + list(self._coords(x)) for x in ((q, 0), (0, q))]
        self.rel_cols = tuple(map(tuple, cols))
        ng = len(self.gens)
        st = AbelianGroupStructure.from_relation_matrix(cols, ng)
        if st.order != self.order:
            raise PramError(f"residue unit group order {st.order} != "
                            f"theoretical {self.order}")
        self.structure = st

    def _coords(self, v):
        """x with x_1 b1 + x_2 b2 = v over the echelon basis (b1, b2) of
        the P^c0 lattice, by two exact divisions; None off the lattice."""
        (a, b), (_, d) = self._Lc0
        x1, r1 = divmod(v[0], a)
        x2, r2 = divmod(v[1] - x1 * b, d)
        return None if r1 or r2 else (x1, x2)

    def dlog(self, u) -> tuple:
        hit = self._table.get(self._top.canon(u))
        if hit is None:
            raise PramError(f"not a unit mod p^n: {u}")
        v, w = hit
        x, y = self.ring.mul(u, w)
        if self._coords((x - 1, y)) is None:
            raise PramError("element is not in the base layer")
        return v + self._coords(self._log((x, y)))


# bounded: where 4p^n exceeds the scanned range of D, as in tor-scan
# --p 2 (n = 20) above 10^6, every field is a ring of its own
@lru_cache(maxsize=256)
def _ring_units(p: int, n: int, r: int) -> ResidueUnits:
    return ResidueUnits(r, p, n)


def units_mod(D: int, p: int, n: int) -> ResidueUnits:
    """(O/p^n)^x of the field of discriminant D, shared with every field
    whose D agrees mod 4p^n.

    Products in O/p^n need only s mod p^n and t (omega^2 = s + t*omega),
    the level lattices only the uniformizer mod p^n, and the splitting
    type only D mod 8 (p = 2) or mod p: D mod 4p^n fixes all of them.
    The group is built from that residue, so it holds no field's own D,
    and callers only read it. ValueError unless p <= 31 is prime and
    1 <= n <= top_level(p).
    """
    _check_modulus(p, n)
    return _ring_units(p, n, D % (4 * p ** n))


# --------------------------------------------------- units and class data

def fundamental_unit(D: int, one):
    """+-eps^(+-1) for the fundamental unit eps of the real field D, in the
    carrier of `one` (see TrackedIdeal): the generator at the first form
    with |a| = 1 after the principal form on its cycle. Ray class groups
    read only the group -1 and eps generate, whatever the sign and
    exponent."""
    return TrackedIdeal(principal_form(D), one).reduce() \
        .rho_step().principal_generator()


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


# ------------------------------------------- relation generators above p
#
# ray_class_group reads a relation's generator alpha only through its image
# in (O/p^n)^x, so the relation walk carries gamma in O (x) Z_p instead of
# exactly: prod_i pi_i^v_i times a unit mod p^N, over the frame's local
# generators pi_i of the primes above p. Each factor of the walk is an
# integer w = p^e * w', taken in through p = prod_i pi_i^ram / eps, or
# (b - sqrt(D))/(2c) = (h - omega)/c (h = (b + t)/2). rho divides
# z = h - omega by each pi_i exactly, as often as it goes, the same way
# for every splitting type: pi_i divides z exactly when the p-part of
# N(pi_i) divides z conj(pi_i) in O, and then z / pi_i is that quotient
# over the rest of N(pi_i), which joins c. So the unit stays exact mod
# p^N however long the walk.

class _Gamma:
    """gamma above p: prod_i pi_i^v_i times a unit x + y*omega mod q, with
    v the tuple of valuations at the primes above p."""
    __slots__ = ("k", "v", "u")

    def __init__(self, k, v, u):
        self.k, self.v, self.u = k, v, u

    def _times(self, dv, u):
        return _Gamma(self.k, tuple(a + b for a, b in zip(self.v, dv)),
                      self.k.ring.mul(self.u, u))

    def mul(self, o):
        return self._times(o.v, o.u)

    def scale(self, n: int):
        k = self.k
        e, n = _split_off(k.p, n)
        u = (n % k.q, 0)
        if e:
            u = k.ring.mul(u, power(k.eps_inv, e, k.ring.mul))
        return self._times((k.ram * e,) * len(self.v), u)

    def rho(self, b: int, c: int):
        k = self.k
        R = k.ring
        z = ((b + k.t) // 2, -1)
        w = [0] * len(self.v)
        if (b * b - k.D) // 4 % k.p == 0:   # p | N(h - omega) = ac
            for i, (pi_bar, pk, rest) in enumerate(k.pi_bars):
                x, y = R.mul_exact(z, pi_bar)
                while x % pk == 0 and y % pk == 0:
                    z, c, w[i] = (x // pk, y // pk), c * rest, w[i] + 1
                    x, y = R.mul_exact(z, pi_bar)
            if R.norm(z) % k.p == 0:
                raise PramError(f"(b - sqrt(D))/2 not divided out by the "
                                f"primes above {k.p}: b = {b}")
        e, c = _split_off(k.p, c)
        u = R.mul(z, (pow(c, -1, k.q), 0))
        if e:
            u = R.mul(u, power(k.eps, e, R.mul))
        return self._times([a - k.ram * e for a in w], u)

    def unit(self) -> tuple:
        """(x, y) = x + y*omega mod q; PramError unless a p-unit."""
        if any(self.v):
            raise PramError(f"relation generator has valuations {self.v} "
                            f"above {self.k.p}")
        return self.u


def _split_off(p: int, n: int) -> tuple:
    """(e, n / p^e) with p^e exactly dividing n."""
    e = vp(n, p)
    return e, n // p ** e


class _LocalFrame:
    """What the gamma carriers of the field D share above p, mod q = p^N:
    the local generators `pis`, one per prime above p with that prime's
    valuation 1 and the others' 0, and the unit eps = prod pi^ram / p;
    `one` starts a walk."""

    def __init__(self, D: int, p: int, N: int):
        R = ResidueRing(D, p, N)
        self.ring, self.D, self.p, self.q, self.t = R, D, p, R.q, R.t
        st = splitting_type(D, p)
        self.ram = 2 if st == "ramified" else 1     # ramification index
        if st == "split":
            # omega - r for a root r of omega^2 = t*omega + s mod p, moved
            # to r + p when p^2 | N(omega - r), and its conjugate
            r = 0 if p == 2 else \
                (R.t + sqrt_mod_prime(D, p)) * pow(2, -1, p) % p
            if R.norm((-r, 1)) % (p * p) == 0:
                r += p
            self.pis = ((-r, 1), (R.t - r, -1))
        else:
            self.pis = (_uniformizer(R) if st == "ramified" else (p, 0),)
        # (conj(pi), the p-part of N(pi), the rest of N(pi)) for rho
        self.pi_bars, pe = [], R.one
        for x, y in self.pis:
            e, rest = _split_off(p, R.norm((x, y)))
            self.pi_bars.append(((x + R.t * y, -y), p ** e, rest))
            pe = R.mul_exact(pe, power((x, y), self.ram, R.mul_exact))
        self.eps = (pe[0] // p, pe[1] // p)
        self.eps_inv = R.inv(self.eps)
        self.one = _Gamma(self, (0,) * len(self.pis), R.one)

    def image(self, gamma, den: int) -> tuple:
        """gamma / den mod q as (x, y) = x + y*omega, den prime to p."""
        x, y = gamma.unit()
        d = pow(den, -1, self.q)
        return (x * d % self.q, y * d % self.q)


def _tracked_pos(t: TrackedIdeal) -> TrackedIdeal:
    return t if t.form.a > 0 else t.rho_step()


def _tracked_mul(s: TrackedIdeal, t: TrackedIdeal) -> TrackedIdeal:
    """s * t, reduced, for reduced s and t; a square (t is s) takes s to
    a > 0 once."""
    a = _tracked_pos(s)
    return a.mul(a if t is s else _tracked_pos(t)).reduce()


def _lift_relation(forms: list, col: list, one) -> tuple:
    """(beta, den) with prod_j I_j^{c_j} = (beta / den), beta in the
    carrier of `one` (see TrackedIdeal): walks I_j^{c_j} for c_j > 0 and
    conj(I_j)^{-c_j} = (a_j)^{-c_j} I_j^{c_j} for c_j < 0 to the
    generator beta, and den = prod_{c_j < 0} a_j^{-c_j}. PramError if the
    product is not principal."""
    t = None
    den = 1
    for f, c in zip(forms, col):
        if c < 0:
            f = f.inverse()
            den *= f.a ** -c
        if c:
            tj = power(TrackedIdeal(f, one).reduce(), abs(c), _tracked_mul)
            t = tj if t is None else _tracked_mul(t, tj)
    if t is None:
        return one, den
    try:
        return t.principal_generator(), den
    except ValueError as exc:
        raise PramError(f"relation {col} is not principal") from exc


@dataclass(frozen=True)
class _ClassData:
    D: int
    p: int
    pres: Presentation                 # Cl_p or Cl, as _class_data says
    k: int                             # Cl_p = Cl^k, or k = 1 for real D
    structure: AbelianGroupStructure   # pres's ordinary group
    relations: list   # (column c over pres.gens, (x, y)): prod I^c = (alpha)
    #                   with alpha = x + y*omega mod p^top_level(p)
    units: list       # (x, y) mod p^top_level(p), the images of -1 and of
    #                   zeta (D = -3, -4) or eps (D > 0)


@lru_cache(maxsize=1)
def _class_data(D, p: int) -> _ClassData:
    """A subgroup of index prime to p of the ordinary class group of D (the
    p-Sylow subgroup for imaginary D, the whole group for real D) and its
    relations, their generators' and the global units' images mod
    p^top_level(p), which reduce to the images mod p^n at every level n.
    D is an int or the Discriminant validated on entry, passed on so that
    |D| is factored once.  They build no ring, so p is any prime.

    Built once per field behind a one-entry cache, keyed by (D, p) as
    passed (pram's entry points pass their Discriminant), so that the
    entry points and the ray class groups at every level share one build.
    Every entry point reads one field; a larger cache would only let the
    bench harness's repeated items hit across passes, which no real run
    does.  Callers only read the shared object."""
    if not is_prime(p):
        raise ValueError(f"the modulus p^n needs a prime p and n >= 1, "
                         f"got p={p}")
    d = as_disc(D)
    D = d.value
    frame = _LocalFrame(D, p, top_level(p))
    units, k = [(-1, 0)], 1
    if D < 0:
        h, pres = full_imaginary_presentation(d, p)
        k = h // pres.h
        structure = pres.structure()
        cols = pres.relation_columns()
        if D in (-3, -4):
            units.append((0, 1))      # omega = (1 + sqrt(-3))/2 or i
    else:
        pres = narrow_presentation(d)
        ram = ramified_principal_form(D)
        structure = pres.quotient(ram)
        # the ramified principal class is ordinary-trivial: one more
        # relation, with an explicit generator
        cols = pres.relation_columns() + [list(pres.dlog(ram))]
        units.append(frame.image(fundamental_unit(D, frame.one), 1))
    forms = [_coprime_rep(f, p) for f in pres.gens]
    relations = [(col, frame.image(*_lift_relation(forms, col, frame.one)))
                 for col in cols]
    return _ClassData(D, p, pres, k, structure, relations, units)


# ------------------------------------------------------- ray class groups

def ray_class_group(D, p: int, n: int) -> AbelianGroupStructure:
    """The preimage in Cl_{p^n} of the field's class group (the p-Sylow
    subgroup for imaginary D), whose p-part is Cl_{p^n}'s, from (O/p^n)^x,
    the global units and the class-group relations, for 1 <= n <=
    top_level(p) (ValueError otherwise, before any class group is built).
    (O/p^n)^x comes from `units_mod`, built once per ring D mod 4p^n per
    process and shared; the images of the units and relation generators
    mod p^top_level(p), from _class_data, are reduced mod p^n."""
    _check_modulus(p, n)
    d = as_disc(D)
    cd = _class_data(d, p)
    G = units_mod(d.value, p, n)
    R = G.ring
    ng, t = len(G.gens), len(cd.pres.gens)
    # (O/p^n)^x's relations and the global units' images
    local = [list(c) for c in G.rel_cols] + \
        [list(G.dlog((x % R.q, y % R.q))) for x, y in cd.units]
    cols = [c + [0] * t for c in local]
    for col, (x, y) in cd.relations:
        cols.append([-e for e in G.dlog((x % R.q, y % R.q))] + col)
    st = AbelianGroupStructure.from_relation_matrix(cols, ng + t)
    # exact order identity of the ray class sequence, with the order of
    # (O/p^n)^x / (image of the units) read off the Hermite diagonal
    im_units = G.order // zlin.lattice_index(local, ng)
    if st.order * im_units != cd.structure.order * G.order:
        raise PramError(f"ray class order identity fails for D={d.value}, "
                        f"p={p}, n={n}")
    return st


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


def w_group(D, p: int) -> int:
    m = as_disc(D).radicand
    if p == 2:
        if m == -1:
            return 1      # Q(i) holds mu_4 globally, so W = mu_4/mu_4
        return 2 if m % 2 == 1 and m % 8 in (1, 7) else 1
    if p == 3:
        if m == -3:
            return 1
        if m % 3 == 0 and (m // 3) % 3 == 2:
            return 3
        return 1
    return 1


def _c_tilde(v: int, p: int, D: int) -> float:
    """C~_p = v log p / log sqrt|D| for #T = p^v, as both tables print it."""
    return v * log(p) / log(isqrt_float(abs(D)))


def tor_report(D, p: int) -> TorsionReport:
    _check_modulus(p, 2)
    d = as_disc(D)
    r = 2 if d.value < 0 else 1
    prev = None
    prev_T = None
    for n in range(2, top_level(p) + 1):
        ray = ray_class_group(d, p, n)
        T = _drop_lines(ray, p, r)
        if prev is not None:
            inc = vp(ray.order, p) - vp(prev.order, p)
            if inc == r and T == prev_T:
                v = vp(prod(T), p)
                return TorsionReport(d.value, p, AbelianGroupStructure(T), v,
                                     w_group(d, p), _c_tilde(v, p, d.value), n)
        prev, prev_T = ray, T
    raise PramError(f"torsion did not stabilize for D={d.value}, p={p}")


def ktilde_index(D, p: int) -> int:
    """[K~ cap H : K] = #Cl_p * #W / #T for imaginary D."""
    d = as_disc(D)
    assert d.value < 0
    rep = tor_report(d, p)
    clp = _class_data(d, p).structure.p_part(p).order
    num = clp * rep.w_order
    den = rep.tor_structure.order
    if num % den:
        raise PramError(f"#Cl_p * #W = {num} not divisible by #T = {den}")
    return num // den


# -------------------------------------------------------- S-class groups

@dataclass
class SClassGroup:
    D: int
    p: int
    structure: AbelianGroupStructure
    s_count: int


def s_class_group(D, p: int) -> SClassGroup:
    """The class data's group Cl_p = Cl^k modulo the primes above p, whose
    p-part is that of the S-class group, S the primes above p: the class
    P^k of a prime P above p generates the image of <P> in Cl_p."""
    d = as_disc(D)
    assert d.value < 0, "S-class groups implemented for imaginary fields"
    cd = _class_data(d, p)
    st = splitting_type(d.value, p)
    if st == "inert":
        return SClassGroup(d.value, p, cd.structure, 1)
    P = power(prime_form(d.value, p), cd.k, cd.pres.op)
    return SClassGroup(d.value, p, cd.pres.quotient(P),
                       2 if st == "split" else 1)


def reflection_check(D, p: int = 2) -> bool:
    """rk_p(T^ord) = rk_p(Cl^{S,res}) + #S - 1 (imaginary, mu_p in K)."""
    d = as_disc(D)
    rep = tor_report(d, p)
    s = s_class_group(d, p)
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
    r1, r2 = (0, 1) if d.value < 0 else (2, 0)
    rep = tor_report(d, p)
    cl = _class_data(d, p).pres.structure()   # narrow for real D
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
    error: str | None = None


def is_fundamental_neg(d: int) -> Discriminant | None:
    """The Discriminant -d when it is fundamental (so d >= 3), else None."""
    # -d = 1 mod 4, or -d = 4m with m = 2, 3 mod 4, before any factoring
    if d < 3 or not (d % 4 == 3 or d % 16 in (4, 8)):
        return None
    try:
        return discriminant_from_value(-d)
    except ValueError:   # not squarefree
        return None


def program_vptor(D, p: int, n: int) -> int:
    """v_p(#Cl_{p^n} / largest-divisor) - (n-1), the printed statistic."""
    ray = ray_class_group(D, p, n)
    top = ray.divisors[0] if ray.divisors else 1
    return vp(ray.order, p) - vp(top, p) - (n - 1)


def scan_level(p: int) -> int:
    """The ray class level n that tor_scan uses by default."""
    return 20 if p == 2 else 8


def tor_scan(lo: int, hi: int, p: int,
             n: int | None = None) -> list[TorRecord]:
    if n is None:
        n = scan_level(p)
    _check_modulus(p, n)
    return merge_tor_maxima([_tor_records(lo, hi, p, n)])


def _tor_records(lo: int, hi: int, p: int, n: int) -> Iterator[TorRecord]:
    """A TorRecord for each fundamental -d, lo <= d <= hi, one at a time,
    so that tor_scan holds only the rows it keeps."""
    for d in range(lo, hi + 1):
        disc = is_fundamental_neg(d)
        if disc is None:
            continue
        D, m = disc.value, disc.radicand
        try:
            v = program_vptor(disc, p, n)
        except (PramError, ClassNumberCapError) as exc:
            yield TorRecord(D, m, 0, 0.0, str(exc))
            continue
        yield TorRecord(D, m, v, _c_tilde(v, p, d))


def merge_tor_maxima(shards: Iterable[Iterable[TorRecord]]
                     ) -> list[TorRecord]:
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
    out = []
    primorial = 1
    ell = 1
    for _ in range(count):
        ell += 2
        while not is_prime(ell):
            ell += 2
        primorial *= ell
        out.append(primorial if primorial % 4 == 1 else -primorial)
    return out


def tor_family(p: int, count: int) -> list[TorsionReport]:
    """Torsion along the odd-primorial family, N = 1..count."""
    assert p == 2, "the tabulated family is the p = 2 one"
    return [tor_report(m, p) for m in family_radicands(count)]
