"""Abelian p-ramification for quadratic fields.

The torsion group T of the Galois group of the maximal abelian p-ramified
pro-p-extension is read off ray class groups mod p^n: at stabilization the
p-part of Cl_{p^n} splits into r = r_2 + 1 growing cyclic lines plus T.
Ray class groups are presented exactly from (O/p^n)^x together with the
images in (O/p^n)^x of the global units and of the generator of each
class-group relation, carried locally above p (a valuation at each prime
above p and a unit mod p^n), never as exact elements.  A real field
walks its principal cycle once: the walk gives eps and a table of the
gamma of every reduced principal ideal, and a relation's generator is
its reduced product's gamma divided by its entry there.  (O/p^n)^x has
two layers for every splitting type: (O/p^k)^x over 1 + p^k O, k = 2
for p = 2 and 1 otherwise, its top a box of p^(2k) points enumerated
point by point, its base made additive by the p-adic logarithm: a unit
is read as coordinates, never rebuilt from generators, so no p-adic
exponential is taken.  Each ring keeps (O/p^n)^x / <-1> as its cyclic
factors (Cohen, GTM 193, 4.2), from one Smith form with its transform,
so that a ray class level stacks those few factors, not every
coordinate of the two layers.

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
from itertools import accumulate, repeat
from math import gcd, isqrt, lcm, log, prod
from operator import mul as times
from typing import Iterable, Iterator

from . import zlin
from .abgroup import AbelianGroupStructure, power
from .arith import is_prime, kronecker, sqrt_mod_prime, vp
from .quadclass import (
    ENUM_CAP,
    SERIES_CAP,
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
from .quadforms import (QuadForm, TrackedIdeal, principal_form,
                        translate_indefinite)


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


# the primes a modulus p^n may have, tested once per process
_MODULUS_PRIMES = frozenset(filter(is_prime, range(32)))


def _check_modulus(p: int, n: int) -> None:
    """ValueError unless p is a prime up to 31 and 1 <= n <= top_level(p):
    the modulus p^n of every (O/p^n)^x and ray class group here.  A ring's
    top (O/p^k)^x over 1 + p^k O, k = 2 for p = 2 and 1 otherwise, is a
    box of p^(2k) points for every splitting type, and units_mod keeps
    256 rings.  At n = 8 one ring holds 0.21-0.23 MB at p = 31, 3.5-3.8
    MB at p = 101 and 18-19 MB at p = 211 beyond its top, which the rings
    of one D mod 4p^k share and which about doubles the first ring's
    (tracemalloc), growing as p^2, so a larger p is refused before any
    ring is built."""
    if not (p in _MODULUS_PRIMES and 1 <= n <= top_level(p)):
        raise ValueError(f"the modulus p^n needs a prime p and n >= 1, "
                         f"with p <= 31 and n <= top_level(p) = "
                         f"{top_level(p)}, got p={p}, n={n}")


@cache
def _series_terms(p: int, n: int, k: int) -> tuple:
    """The p-adic log on 1 + p^k O mod q = p^n, log(1 + x) as the sum
    sum_m c_m x^m / p^v_m over a table of (p^v_m, c_m), m = 1, 2, ...,
    with m = p^v_m * u_m and c_m = +-1/u_m mod q.  The table comes as (Q,
    terms) with Q = q * max p^v_m, the precision `ResidueUnits._log` keeps
    x^m at.  x^m / p^v lies in p^(m*k - v) O, so a term is dropped once
    m*k - v >= n, whatever the splitting type; rings share the table."""
    q = p ** n
    # past kmax every term has m*k - v_p(m) >= n, so the table ends at the
    # last m <= kmax that misses it
    kmax = (n + 2 * n.bit_length() + 6) // k + 8
    last = max((m for m in range(1, kmax + 1) if m * k - vp(m, p) < n),
               default=0)
    terms = []
    for m in range(1, last + 1):
        v, u = _split_off(p, m)
        terms.append((p ** v, (-1) ** (m + 1) * pow(u, -1, q)))
    return q * max([1] + [pv for pv, _ in terms]), tuple(terms)


class ResidueUnits:
    """(O/p^n)^x / <-1> as its cyclic factors, with a dlog onto them.

    Two layers over one base for every splitting type, 1 + p^k O with k =
    2 for p = 2 and 1 otherwise (k = n if n is smaller): the top
    (O/p^k)^x, the unit points of the box [0, p^k)^2 (_box_units); and the
    base 1 + p^k O, handled additively through the p-adic logarithm, which
    maps it onto p^k O since v_P(p^k) = ek > e/(p - 1) at a prime P of
    ramification index e.  Over the layers a unit has `ngens` coordinates,
    its exponents over the top generators, as units mod q `lifts` (-1
    itself for -1's point, the first), and its base log over p^k and p^k
    omega; `rel_cols` are their relations, a top one carrying the base
    coordinates of its quotient, since it holds mod p^k only.

    The build takes one elimination, the Smith form of -1's coordinates
    and `rel_cols` with its column transform V (Cohen, GTM 193, 4.2): x ->
    x V takes the coordinates onto the cyclic factors s_1 | s_2 | ... of
    (O/p^n)^x / <-1>, and `factors` keeps those above 1.  `index`, their
    product, times the order of -1 (2 unless q = 2) must be the group's
    theoretical order.

    `dlog` gives a unit's coordinates over `factors`, each reduced mod its
    factor: a table built once per group holds each point of the box with
    its top exponents already taken through V and the inverse of their
    word; one product takes the unit into the base, whose log, a short
    series at fixed precision, has its coordinates over p^k O by one exact
    division each, and they enter through V's two base rows.

    The group depends only on the ring O/p^n, hence only on D mod 4p^n;
    `units_mod` builds it once per ring per process.
    """

    def __init__(self, D: int, p: int, n: int):
        _check_modulus(p, n)
        self.ring = ResidueRing(D, p, n)
        self.D, self.p, self.n = D, p, n
        self.k = k = min(2 if p == 2 else 1, n)
        self.pk = p ** k
        st = splitting_type(D, p)
        # theoretical order
        if st == "split":
            self.order = (p - 1) ** 2 * p ** (2 * (n - 1))
        elif st == "inert":
            self.order = (p * p - 1) * p ** (2 * (n - 1))
        else:
            self.order = (p - 1) * p ** (2 * n - 1)
        self._log_terms = _series_terms(p, n, k)
        self._build()

    def _log(self, u):
        """log u mod q: the terms (p^v_m, c_m) of the log table summed over
        x = u - 1, with x^m kept mod Q: p^v_m | Q, so p^v_m divides x^m
        exactly when it divides x^m mod Q, and then their quotients agree
        mod q.  PramError unless p^v_m divides x^m, as it does for u in the
        base 1 + p^k O."""
        R = self.ring
        Q, terms = self._log_terms
        s, t, q = R.s, R.t, R.q
        a, b = x0, x1 = ((u[0] - 1) % q, u[1] % q)
        s0 = s1 = 0
        for m, (pv, c) in enumerate(terms):
            if m:
                bb = b * x1
                a, b = (a * x0 + bb * s) % Q, (a * x1 + b * x0 + bb * t) % Q
            if a % pv or b % pv:
                raise PramError("p-adic series lost exactness")
            s0 += a // pv * c
            s1 += b // pv * c
        return (s0 % q, s1 % q)

    def _base(self, x: int, y: int) -> tuple:
        """The coordinates of x + y*omega in the base 1 + p^k O over p^k
        and p^k omega: its log divided by p^k."""
        if x == 1 and y == 0:
            return 0, 0
        pk = self.pk
        if (x - 1) % pk or y % pk:
            raise PramError("element is not in the base layer")
        a, b = self._log((x, y))
        return a // pk, b // pk

    def _build(self):
        R, pk, q = self.ring, self.pk, self.ring.q
        mul = R.mul
        top, points = _box_units(self.p, self.k, self.D % (4 * pk))
        self._top = top
        # the top generators as units mod q: -1 itself for -1's point, so
        # that neither -1 nor its relation (-1)^2 = 1 sums a series
        self.lifts = tuple((q - 1, 0) if g == (pk - 1, 0) else g
                           for g in top.gens)
        # each unit point -> (its top exponents v, 1 / prod_j lifts[j]^v_j
        # mod q), which takes a unit on that point into the base; with the
        # powers g^-e of each lift at hand, a product per letter
        inv_powers = [list(accumulate(repeat(R.inv(g), o - 1), mul,
                                      initial=R.one))
                      for g, o in zip(self.lifts, top.orders)]
        table = self._table = {}
        for c, v in points:
            w = R.one
            for e, row in zip(v, inv_powers):
                if e:
                    w = mul(w, row[e])
            table[c] = (v, w)

        def coords(u):
            v, w = table[top.canon(u)]
            return [*v, *self._base(*mul(u, w))]

        # relations: g_i^{o_i} = prod_j g_j^{w_ij} holds mod p^k only, so
        # each top column carries the base coordinates of the quotient; the
        # base p^k O / p^n O has the columns p^k and p^k omega, both 0 mod
        # q when k = n.  Tuples, because one group is shared by every field
        # of the ring
        nt = len(top.gens)
        self.ngens = ng = nt + 2
        cols = [col + [-e for e in coords(power(g, o, mul))[nt:]]
                for col, g, o in zip(top.relation_columns(), self.lifts,
                                     top.orders)]
        cols += [[0] * nt + [q // pk, 0], [0] * nt + [0, q // pk]]
        self.rel_cols = tuple(map(tuple, cols))
        # -1 is a unit of every field of the ring, so the factors are
        # those of the group modulo -1
        s, forms = zlin.smith_diagonal([coords((q - 1, 0)), *cols],
                                       transform=True)
        lo = s.count(1)
        self.factors = fs = tuple(s[lo:])
        index = prod(fs) if len(s) == ng else 0
        if index * (2 if q > 2 else 1) != self.order:
            raise PramError(f"residue unit group order {index} * ord(-1) "
                            f"!= theoretical {self.order}")
        self.index = index
        forms = forms[lo:ng]
        self._base_rows = [[f[nt] for f in forms], [f[nt + 1] for f in forms]]
        # the top exponents taken through V's top rows, unreduced
        self._table = {c: (tuple(sum(map(times, v, f)) for f in forms), w)
                       for c, (v, w) in table.items()}

    def dlog(self, u) -> tuple:
        hit = self._table.get(self._top.canon(u))
        if hit is None:
            raise PramError(f"not a unit mod p^n: {u}")
        v, w = hit
        a, b = self._base(*self.ring.mul(u, w))
        r, t = self._base_rows
        return tuple([(x + a * y + b * z) % f
                      for x, y, z, f in zip(v, r, t, self.factors)])


@lru_cache(maxsize=256)
def _box_units(p: int, k: int, r: int) -> tuple:
    """(top, points) for every ring whose D = r mod 4p^k, which fixes the
    product mod p^k: (O/p^k)^x, the unit points of the box [0, p^k)^2, in
    one staircase bounded by their count, -1's point its first generator
    unless p^k = 2, and each point with its exponents."""
    R = ResidueRing(r, p, k)
    pk = R.q

    def canon(u):
        return (u[0] % pk, u[1] % pk)

    units = [(i, j) for i in range(pk) for j in range(pk) if R.is_unit((i, j))]
    top = ClassGroupPresentation.staircase(R.one, canon, R.mul,
                                           [(pk - 1, 0), *units], len(units))
    return top, tuple((c, top.dlog(c)) for c in units)


# bounded: where 4p^n exceeds the scanned range of D, as in tor-scan
# --p 2 (n = 20) above 10^6, every field is a ring of its own
@lru_cache(maxsize=256)
def _ring_units(p: int, n: int, r: int) -> ResidueUnits:
    return ResidueUnits(r, p, n)


def units_mod(D: int, p: int, n: int) -> ResidueUnits:
    """(O/p^n)^x of the field of discriminant D, shared with every field
    whose D agrees mod 4p^n.

    Products in O/p^n need only s mod p^n and t (omega^2 = s + t*omega),
    and the splitting type only D mod 8 (p = 2) or mod p: D mod 4p^n
    fixes both.
    The group is built from that residue, so it holds no field's own D,
    and callers only read it: its cyclic factors modulo -1 and its dlog
    onto them serve every field of the ring, and nothing of a field's own
    (eps, relation images) is kept with it.  ValueError unless p <= 31 is
    prime and 1 <= n <= top_level(p).
    """
    _check_modulus(p, n)
    return _ring_units(p, n, D % (4 * p ** n))


# --------------------------------------------------- units and class data

def fundamental_unit(D: int, one) -> tuple:
    """(+-eps^(+-1), table) for the fundamental unit eps of the real field
    D, in the carrier of `one` (see TrackedIdeal): one walk of the
    principal cycle, stepped as integers, from the principal form to the
    next form with |a| = 1; ray class groups read only the group -1 and
    eps generate.  The table maps (|a|, b, |c|) of each form the walk
    passes to its gamma, gamma * I(a, b, c) = O: (-a, b, -c) is the same
    ideal, so the walk's one period of ideals covers every reduced
    principal ideal, on the negated cycle too."""
    cur = TrackedIdeal(principal_form(D), one).reduce()
    (a, b, c), gamma = cur.form, cur.gamma
    sqD = isqrt(D)
    table = {}
    while True:
        table[abs(a), b, abs(c)] = gamma
        gamma = gamma.rho(b, c)
        a, b, c = translate_indefinite(c, -b, a, sqD)
        if abs(a) == 1:
            return gamma, table


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
# generators pi_i of the primes above p, the unit kept as x + y*omega over
# an integer prime to p (the p-free parts of the c met so far). Each
# factor of the walk is an integer w = p^e * w', taken in through
# p = prod_i pi_i^ram / eps, or (b - sqrt(D))/(2c) = (h - omega)/c
# (h = (b + t)/2), whose p-free part of c joins the integer. rho divides
# z = h - omega by each pi_i exactly, as often as it goes, the same way
# for every splitting type: pi_i divides z exactly when the p-part of
# N(pi_i) divides z conj(pi_i) in O, and then z / pi_i is that quotient
# over the rest of N(pi_i), which joins c. So the unit stays exact mod
# p^N however long the walk.

class _Gamma:
    """gamma above p: prod_i pi_i^v_i times x + y*omega over an integer d
    prime to p, mod q, with v the tuple of valuations at the primes above
    p.  rho, mul and div multiply d rather than invert it; `unit` divides
    by it once, at the end of the walk."""
    __slots__ = ("k", "v", "u", "d")

    def __init__(self, k, v, u, d):
        self.k, self.v, self.u, self.d = k, v, u, d

    def mul(self, o):
        k = self.k
        return _Gamma(k, tuple(a + b for a, b in zip(self.v, o.v)),
                      k.ring.mul(self.u, o.u), self.d * o.d % k.q)

    def div(self, o):
        # u / d over u' / d' is u d' conj(u') over d N(u'), N(u') prime to p
        k = self.k
        R = k.ring
        x, y = o.u
        u = R.mul(self.u, ((x + k.t * y) * o.d, -y * o.d))
        return _Gamma(k, tuple(a - b for a, b in zip(self.v, o.v)), u,
                      self.d * R.norm(o.u) % k.q)

    def scale(self, n: int):
        k = self.k
        e, n = _split_off(k.p, n)
        u = (self.u[0] * n % k.q, self.u[1] * n % k.q)
        if e:
            u = k.ring.mul(u, power(k.eps_inv, e, k.ring.mul))
        return _Gamma(k, tuple(a + k.ram * e for a in self.v), u, self.d)

    def rho(self, b: int, c: int):
        k = self.k
        R = k.ring
        z = ((b + k.t) // 2, -1)
        v = self.v
        if (b * b - k.D) // 4 % k.p == 0:   # p | N(h - omega) = ac
            w = list(v)
            for i, (pi_bar, pk, rest) in enumerate(k.pi_bars):
                x, y = R.mul_exact(z, pi_bar)
                while x % pk == 0 and y % pk == 0:
                    z, c, w[i] = (x // pk, y // pk), c * rest, w[i] + 1
                    x, y = R.mul_exact(z, pi_bar)
            if R.norm(z) % k.p == 0:
                raise PramError(f"(b - sqrt(D))/2 not divided out by the "
                                f"primes above {k.p}: b = {b}")
            v = tuple(w)
        u = R.mul(self.u, z)
        if c % k.p == 0:
            e, c = _split_off(k.p, c)
            u = R.mul(u, power(k.eps, e, R.mul))
            v = tuple(a - k.ram * e for a in v)
        return _Gamma(k, v, u, self.d * c % k.q)

    def unit(self, den: int = 1) -> tuple:
        """gamma / den as (x, y) = x + y*omega mod q, den prime to p;
        PramError unless gamma is a p-unit."""
        if any(self.v):
            raise PramError(f"relation generator has valuations {self.v} "
                            f"above {self.k.p}")
        q = self.k.q
        w = pow(self.d * den, -1, q)
        return (self.u[0] * w % q, self.u[1] * w % q)


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
        self.one = _Gamma(self, (0,) * len(self.pis), R.one, 1)


def _tracked_pos(t: TrackedIdeal) -> TrackedIdeal:
    return t if t.form.a > 0 else t.rho_step()


def _tracked_mul(s: TrackedIdeal, t: TrackedIdeal) -> TrackedIdeal:
    """s * t, reduced, for reduced s and t; a square (t is s) takes s to
    a > 0 once."""
    a = _tracked_pos(s)
    return a.mul(a if t is s else _tracked_pos(t)).reduce()


def _lift_relation(forms: list, col: list, one, cycle) -> tuple:
    """(beta, den) with prod_j I_j^{c_j} = (beta / den), beta in the
    carrier of `one` (see TrackedIdeal): multiplies out I_j^{c_j} for
    c_j > 0 and conj(I_j)^{-c_j} = (a_j)^{-c_j} I_j^{c_j} for c_j < 0,
    reduced, to gamma * I(f), and den = prod_{c_j < 0} a_j^{-c_j}.  For
    imaginary D (cycle None), f is the principal form and beta = gamma;
    for real D, beta = gamma / cycle[f], cycle the principal cycle's table
    from fundamental_unit, one division and no walk.  PramError if the
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
    if cycle is None:
        try:
            return t.principal_generator(), den
        except ValueError as exc:
            raise PramError(f"relation {col} is not principal") from exc
    a, b, c = t.form
    gamma = cycle.get((abs(a), b, abs(c)))
    if gamma is None:
        raise PramError(f"relation {col} is not principal")
    return t.gamma.div(gamma), den


@dataclass(frozen=True)
class _ClassData:
    D: int
    p: int
    pres: Presentation                 # Cl_p or Cl, as _class_data says
    k: int                             # Cl_p = Cl^k, or k = 1 for real D
    structure: AbelianGroupStructure   # pres's ordinary group
    relations: list   # (column c over pres.gens, (x, y)): prod I^c = (alpha)
    #                   with alpha = x + y*omega mod p^top_level(p)
    units: list       # (x, y) mod p^top_level(p), the images of zeta
    #                   (D = -3, -4) or eps (D > 0): the units beyond -1,
    #                   which every ring's ResidueUnits.factors leave out


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
    units, k, cycle = [], 1, None
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
        eps, cycle = fundamental_unit(D, frame.one)
        units.append(eps.unit())
    forms = [_coprime_rep(f, p) for f in pres.gens]
    relations = []
    for col in cols:
        beta, den = _lift_relation(forms, col, frame.one, cycle)
        relations.append((col, beta.unit(den)))
    return _ClassData(D, p, pres, k, structure, relations, units)


# ------------------------------------------------------- ray class groups

def ray_class_group(D, p: int, n: int) -> AbelianGroupStructure:
    """The preimage in Cl_{p^n} of the field's class group (the p-Sylow
    subgroup for imaginary D), whose p-part is Cl_{p^n}'s, from (O/p^n)^x,
    the global units and the class-group relations, for 1 <= n <=
    top_level(p) (ValueError otherwise, before any class group is built).
    (O/p^n)^x comes from `units_mod`, built once per ring D mod 4p^n per
    process, as its cyclic factors s_1 | ... | s_m modulo -1.  One Smith
    form over m + t coordinates, t the class group's generators, takes
    diag(s), zeta or eps when the field has one, and the class relations,
    whose generators' images mod p^top_level(p), from _class_data, are
    reduced mod p^n; with neither, the group is the ring's chain.  The
    index [(O/p^n)^x : image of the units] is prod s over the order of
    zeta's or eps's image u, lcm s_i / gcd(u_i, s_i), and the order
    identity of the ray class sequence is checked exactly."""
    _check_modulus(p, n)
    d = as_disc(D)
    cd = _class_data(d, p)
    G = units_mod(d.value, p, n)
    q = G.ring.q
    fs, t = G.factors, len(cd.pres.gens)
    m = len(fs)
    index = G.index
    if not (cd.units or cd.relations):
        st = AbelianGroupStructure(fs[::-1])
    else:
        cols = [[0] * i + [f] + [0] * (m - 1 - i + t)
                for i, f in enumerate(fs)]
        # the factors leave -1 out; zeta or eps, at most one, divides the
        # index by its order
        if cd.units:
            (x, y), = cd.units
            u = G.dlog((x % q, y % q))
            index //= lcm(*(f // gcd(e, f) for e, f in zip(u, fs)))
            cols.append(list(u) + [0] * t)
        for col, (x, y) in cd.relations:
            cols.append([-e for e in G.dlog((x % q, y % q))] + col)
        st = AbelianGroupStructure.from_relation_matrix(cols, m + t)
    # exact order identity of the ray class sequence
    # 1 -> (O/p^n)^x / image of the units -> Cl_{p^n} -> Cl -> 1
    if st.order != cd.structure.order * index:
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
    if d.value >= 0:
        raise ValueError(f"ktilde_index needs an imaginary field, got D = "
                         f"{d.value}")
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
    if d.value >= 0:
        raise ValueError(f"S-class groups are implemented for imaginary "
                         f"fields, got D = {d.value}")
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


# The largest |D| of reflection_scan, which walks every |D| from 3: at
# p = 2, on one core of a 2-core machine, it costs about 0.1 ms per |D|
# below 10^4, 0.13 ms near 10^5 and 0.19 ms near 2 * 10^6, so about 5 min
# and 6 * 10^5 fields (the CLI holds each one's row) at the budget.
REFLECTION_MAX_D = 2 * 10 ** 6


def reflection_scan(hi: int, p: int = 2) -> Iterator[tuple[int, bool]]:
    """(D, reflection_check(D, p)) for each fundamental D = -d, d <= hi, in
    order of d; ClassNumberCapError before any field for hi above
    REFLECTION_MAX_D."""
    if hi > REFLECTION_MAX_D:
        raise ClassNumberCapError(f"a reflection check up to |D| = {hi} "
                                  f"exceeds the budget {REFLECTION_MAX_D}")
    return ((d.value, reflection_check(d, p)) for d in fundamental_negs(3, hi))


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


# The widest window of |D| one tor_scan takes, counted from |D| = 3.  At
# p = 2, on one core of a 2-core machine, a window costs about 0.2 ms per
# |D| near 10^6 (0.65 ms per fundamental field), 1.2 ms near 10^7, and
# 4 ms above SERIES_CAP, where every fundamental field is an error row
# and every error row is kept.  So the budget is about 7 min of one
# worker near 10^6, 40 min near 10^7, and 2.2 h and 6 * 10^5 error rows
# above 10^13; the window [10^6, 2 * 10^6] fits.
TOR_SCAN_SPAN = 2 * 10 ** 6


def tor_scan_level(lo: int, hi: int, p: int, n: int | None = None) -> int:
    """The level n (for None 20 at p = 2 and 8 above) after every check a
    tor_scan of lo <= |D| <= hi makes before any field: ValueError for a
    bad p or n, ClassNumberCapError for a window max(lo, 3) <= |D| <= hi
    wider than TOR_SCAN_SPAN."""
    n = (20 if p == 2 else 8) if n is None else n
    _check_modulus(p, n)
    span = hi - max(lo, 3) + 1
    if span > TOR_SCAN_SPAN:
        raise ClassNumberCapError(f"a tor-scan window of {span} values of "
                                  f"|D| exceeds the budget {TOR_SCAN_SPAN}")
    return n


def tor_scan(lo: int, hi: int, p: int,
             n: int | None = None) -> list[TorRecord]:
    """The rows tor-scan prints for lo <= |D| <= hi: each fundamental
    field whose statistic reaches the running maximum, and every error
    row, after tor_scan_level's checks."""
    n = tor_scan_level(lo, hi, p, n)
    return list(merge_tor_maxima([_tor_records(lo, hi, p, n)]))


def fundamental_negs(lo: int, hi: int) -> Iterator[Discriminant]:
    """Each fundamental discriminant -d, max(lo, 3) <= d <= hi, in order."""
    for d in range(max(lo, 3), hi + 1):
        disc = is_fundamental_neg(d)
        if disc is not None:
            yield disc


def _tor_records(lo: int, hi: int, p: int, n: int) -> Iterator[TorRecord]:
    """A TorRecord for each fundamental -d, lo <= d <= hi, one at a time,
    so that tor_scan holds only the rows it keeps."""
    for disc in fundamental_negs(lo, hi):
        D, m = disc.value, disc.radicand
        try:
            v = program_vptor(disc, p, n)
        except (PramError, ClassNumberCapError) as exc:
            yield TorRecord(D, m, 0, 0.0, str(exc))
            continue
        yield TorRecord(D, m, v, _c_tilde(v, p, D))


def merge_tor_maxima(shards: Iterable[Iterable[TorRecord]]
                     ) -> Iterator[TorRecord]:
    """The records of consecutive shards that reach the running maximum,
    and every error row, each once the shards up to its own are read."""
    vp_max = 0
    for shard in shards:
        for r in shard:
            if r.error is None:
                vp_max = max(vp_max, r.vptor)
                if r.vptor < max(vp_max, 1):
                    continue
            yield r


def family_radicands(count: int) -> Iterator[int]:
    """m_N = +/- product of the first N odd primes, sign making m = 1 mod 4,
    for N = 1..count, one at a time."""
    primorial = 1
    ell = 1
    for _ in range(count):
        ell += 2
        while not is_prime(ell):
            ell += 2
        primorial *= ell
        yield primorial if primorial % 4 == 1 else -primorial


def tor_family(p: int, count: int) -> list[TorsionReport]:
    """Torsion along the odd-primorial family, N = 1..count (D = m_N).
    ValueError unless p = 2, and ClassNumberCapError before any field at
    the first m_N above the budget of its sign: ENUM_CAP for a real
    field, SERIES_CAP for an imaginary one."""
    if p != 2:
        raise ValueError(f"the tabulated family is the p = 2 one, got p={p}")
    ms = []
    for m in family_radicands(count):
        cap = ENUM_CAP if m > 0 else SERIES_CAP
        if abs(m) > cap:
            raise ClassNumberCapError(f"m_{len(ms) + 1} = {m} exceeds the "
                                      f"class-number budget {cap}")
        ms.append(m)
    return [tor_report(m, p) for m in ms]
