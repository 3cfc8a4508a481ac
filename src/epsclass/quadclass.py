"""Class groups of quadratic fields via binary quadratic forms.

Imaginary class groups (restricted = ordinary), real narrow class groups
through cycle equivalence, p-parts, the genus rigidity check
rk_2 = omega(D) - 1, epsilon-statistic scans over fundamental
discriminants, and the normic search a^2 + m b^2 = 4 q^(p^rho).

Class-group structure comes from a staircase presentation: generators are
adjoined greedily, each new generator g contributing one triangular
relation g^o = (word in earlier generators); Smith form of the relation
matrix gives the divisor chain, and the closure table doubles as a
discrete-log dictionary (reused for ray class groups). Building it costs
one group operation per new class, plus one canonicalisation per
generator: h - 1 compositions for a class group of order h.

Imaginary generators are every reduced form up to |D| = ENUM_CAP, an
unconditional enumeration, and above it the forms of the prime ideals of
norm at most 6 log^2 |D|, which generate the class group under GRH
(Bach's bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, log, prod
from typing import Callable, Iterable, Optional

import numpy as np

from .abgroup import AbelianGroupStructure
from .arith import (
    FactorBudgetError,
    factor,
    is_prime,
    kronecker,
    prime_sieve,
    sqrt_mod_prime,
    vp,
)
from .quadforms import (
    QuadForm,
    compose,
    cycle_indefinite,
    principal_form,
    reduce_imaginary,
    reduce_indefinite,
    reduced_forms_imaginary,
    reduced_forms_indefinite,
    rho_indefinite,
)

ENUM_CAP = 10 ** 7
BSGS_CAP = 10 ** 13


class ClassNumberCapError(Exception):
    pass


# ------------------------------------------------------------- discriminants

@dataclass(frozen=True)
class Discriminant:
    value: int
    radicand: int
    ramified_count: int

    def __post_init__(self):
        D = self.value
        assert D % 4 in (0, 1)

    @property
    def abs(self) -> int:
        return abs(self.value)


def fundamental_discriminant(m: int) -> Discriminant:
    """Fundamental discriminant of Q(sqrt(m)) for squarefree m."""
    if m in (0, 1):
        raise ValueError("m must define a quadratic field")
    fac = factor(abs(m))
    if any(e > 1 for _, e in fac.factors):
        raise ValueError(f"m = {m} is not squarefree")
    return _discriminant(m, fac.omega())


def _discriminant(m: int, omega: int) -> Discriminant:
    """Discriminant of Q(sqrt(m)) for squarefree m with omega(|m|) primes."""
    if m % 4 == 1:
        return Discriminant(m, m, omega)
    # D = 4m: 2 divides D even when it does not divide m
    return Discriminant(4 * m, m, omega + m % 2)


def discriminant_from_value(D: int) -> Discriminant:
    m = D if D % 4 == 1 else D // 4
    d = fundamental_discriminant(m)
    if d.value != D:
        raise ValueError(f"{D} is not a fundamental discriminant")
    return d


def as_disc(x) -> Discriminant:
    return x if isinstance(x, Discriminant) else discriminant_from_value(x)


# --------------------------------------------------- staircase presentations

@dataclass
class ClassGroupPresentation:
    """Generators/relations of a finite abelian class group.

    words[i] gives gens[i]^orders[i] = prod_{j<i} gens[j]^words[i][j];
    dlog_table maps every canonical class representative to its exponent
    vector over gens.
    """
    D: int
    gens: list
    orders: list
    words: list
    dlog_table: dict
    identity: object
    canon: Callable
    op: Callable

    @property
    def h(self) -> int:
        return len(self.dlog_table)

    def dlog(self, f) -> tuple:
        v = self.dlog_table[self.canon(f)]
        return v + (0,) * (len(self.gens) - len(v))

    def relation_columns(self) -> list[list[int]]:
        n = len(self.gens)
        cols = []
        for i in range(n):
            col = [0] * n
            col[i] = self.orders[i]
            for j, e in enumerate(self.words[i]):
                col[j] -= e
            cols.append(col)
        return cols

    def quotient(self, *elements) -> AbelianGroupStructure:
        """The group modulo the classes of elements."""
        cols = self.relation_columns() + [self.dlog(e) for e in elements]
        rows = [list(r) for r in zip(*cols)]
        return AbelianGroupStructure.from_relation_matrix(rows,
                                                          len(self.gens))

    def structure(self) -> AbelianGroupStructure:
        g = self.quotient()
        assert g.order == self.h
        return g

    def adjoin(self, e) -> None:
        """Add generator e: find its order o over the current closure
        (e^o = word in earlier gens) and extend the dlog table.

        Costs one op per new class plus one canon per generator: a single
        walk gives e^2, ..., e^o, and e, ..., e^(o-1) are the identity's
        row."""
        dlog, op = self.dlog_table, self.op
        e = self.canon(e)
        powers = [e]
        while powers[-1] not in dlog:
            powers.append(op(powers[-1], e))
        k = len(powers)
        word = dlog[powers.pop()]
        idx = len(self.gens)
        self.gens.append(e)
        self.orders.append(k)
        self.words.append(word + (0,) * (idx - len(word)))
        # the identity is the table's first key
        _, *base = dlog.items()
        for j, ej in enumerate(powers, 1):
            dlog[ej] = (0,) * idx + (j,)
            for elt, vec in base:
                dlog[op(elt, ej)] = vec + (0,) * (idx - len(vec)) + (j,)


def _staircase(pres: ClassGroupPresentation, elements: Iterable) -> None:
    for e in elements:
        if e not in pres.dlog_table:
            pres.adjoin(e)


def _trivial_imaginary(D: int) -> ClassGroupPresentation:
    """The staircase of imaginary D before any generator."""
    ident = reduce_imaginary(principal_form(D))

    def op(f, g):
        return reduce_imaginary(compose(f, g))

    return ClassGroupPresentation(D, [], [], [], {ident: ()}, ident,
                                  reduce_imaginary, op)


def imaginary_presentation(D: int) -> ClassGroupPresentation:
    assert D < 0 and D % 4 in (0, 1)
    forms = sorted(reduced_forms_imaginary(D))
    pres = _trivial_imaginary(D)
    _staircase(pres, forms)
    assert pres.h == len(forms)
    return pres


def narrow_presentation(D: int) -> ClassGroupPresentation:
    """Narrow (restricted) class group of real D via cycle classes.

    Enumerating the reduced forms costs about D/4 trial divisions, so D
    above ENUM_CAP raises ClassNumberCapError instead of running on.
    """
    assert D > 0 and D % 4 in (0, 1)
    if D > ENUM_CAP:
        raise ClassNumberCapError(
            f"D = {D} exceeds the real enumeration cap {ENUM_CAP}")
    forms = reduced_forms_indefinite(D)
    rep_of = {}
    reps = []
    for f in sorted(forms):
        if f in rep_of:
            continue
        cyc = cycle_indefinite(f)
        r = min(cyc)
        for g in cyc:
            rep_of[g] = r
        reps.append(r)
    sqD = isqrt(D)

    def canon(f):
        f = reduce_indefinite(f)
        if f not in rep_of:
            cyc = cycle_indefinite(f)
            r = min(cyc)
            for g in cyc:
                rep_of[g] = r
        return rep_of[f]

    def pos(f):
        return f if f.a > 0 else rho_indefinite(f, sqD)

    def op(f, g):
        return canon(compose(pos(f), pos(g)))

    ident = canon(principal_form(D))
    pres = ClassGroupPresentation(D, [], [], [], {ident: ()}, ident, canon, op)
    _staircase(pres, reps)
    assert pres.h == len(reps)
    return pres


def ramified_principal_form(D: int) -> QuadForm:
    """Form of the principal ideal (sqrt(m)), of norm |m| (negative-norm
    generator): the narrow class killed when passing to the ordinary group."""
    if D % 4 == 0:
        m = D // 4
        return QuadForm(m, 0, -1)
    return QuadForm(D, D, (D - 1) // 4)


# --------------------------------------------------------------- public ops

def full_imaginary_presentation(D: int) -> ClassGroupPresentation:
    """Presentation of the imaginary class group of D, the one builder of
    every command: exact enumeration for |D| <= ENUM_CAP, the
    GRH-conditional staircase over the prime forms under Bach's bound (up
    to BSGS_CAP) above it."""
    if -D <= ENUM_CAP:
        return imaginary_presentation(D)
    return class_number_bsgs(D)[1]


def class_group_imaginary(D) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value < 0
    return full_imaginary_presentation(d.value).structure()


def narrow_class_group_real(D) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value > 0
    return narrow_presentation(d.value).structure()


def ordinary_class_group_real(D) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value > 0
    return narrow_presentation(d.value).quotient(
        ramified_principal_form(d.value))


def genus_delta(D) -> tuple[int, int]:
    """(N, Delta) with Delta = v_2(h_restricted) - (N-1); asserts the genus
    rigidity rk_2 = N - 1."""
    d = as_disc(D)
    g = class_group_imaginary(d) if d.value < 0 else narrow_class_group_real(d)
    N = d.ramified_count
    assert g.p_rank(2) == N - 1, (d.value, g.divisors, N)
    return N, g.vp(2) - (N - 1)


def c_kp(h_p: int, D) -> float:
    if h_p == 1:
        return 0.0
    d = as_disc(D)
    return log(h_p) / log(isqrt_float(d.abs))


def isqrt_float(n: int) -> float:
    # sqrt of a big integer without float overflow
    if n < 10 ** 15:
        return n ** 0.5
    k = (n.bit_length() - 52) // 2
    return (n >> (2 * k)) ** 0.5 * 2.0 ** k


# ----------------------------------------------------------- batch sieves

def batch_squarefree(X: int) -> np.ndarray:
    sf = np.ones(X + 1, dtype=bool)
    sf[0] = False
    for p in range(2, isqrt(X) + 1):
        sf[p * p:: p * p] = False
    return sf


def batch_omega(X: int) -> np.ndarray:
    om = np.zeros(X + 1, dtype=np.int8)
    for p in range(2, X + 1):
        if om[p] == 0:
            om[p::p] += 1
    return om


def batch_fundamental_imaginary(X: int) -> np.ndarray:
    """mask[d] true iff D = -d is a fundamental discriminant, d <= X."""
    sf = batch_squarefree(X)
    d = np.arange(X + 1)
    mask = sf & (d % 4 == 3)
    k = X // 4
    kk = np.arange(k + 1)
    sub = sf[: k + 1] & ((kk % 4 == 1) | (kk % 4 == 2))
    m4 = np.zeros(X + 1, dtype=bool)
    m4[:: 4][: k + 1] = sub
    return mask | m4


def batch_class_numbers_imaginary(X: int) -> np.ndarray:
    """h[d] = number of reduced forms of discriminant -d (class number for
    fundamental -d), by direct brute-force counting of (a, b, c)."""
    h = np.zeros(X + 1, dtype=np.int32)
    a = 1
    while 3 * a * a <= X:
        fa = 4 * a
        for b in range(0, a + 1):
            d0 = fa * a - b * b  # c = a
            if d0 <= X:
                h[d0] += 1
            w = 2 if 0 < b < a else 1
            start = d0 + fa  # c = a + 1
            if start <= X:
                h[start:: fa] += w
        a += 1
    return h


def batch_ambiguous_counts(X: int) -> np.ndarray:
    """amb[d] = number of reduced ambiguous forms of discriminant -d
    (b = 0, b = a, or a = c); equals 2^(N-1) for fundamental -d."""
    amb = np.zeros(X + 1, dtype=np.int32)
    # b = 0: |D| = 4ac, c >= a
    a = 1
    while 4 * a * a <= X:
        amb[4 * a * a:: 4 * a] += 1
        a += 1
    # b = a: |D| = 4ac - a^2, c >= a
    a = 1
    while 3 * a * a <= X:
        amb[3 * a * a:: 4 * a] += 1
        a += 1
    # a = c, 0 < b < a: |D| = (2a-b)(2a+b) = uv, u < v < 3u, v = -u mod 4
    u = 1
    while u * (u + 1) <= X:
        v0 = u + (-2 * u) % 4
        if v0 == u:
            v0 += 4
        if u * v0 <= X:
            stop = min(3 * u * u, X + 1)
            amb[u * v0: stop: 4 * u] += 1
        u += 1
    return amb


# the batch-sieve name of arith.prime_sieve, under which perfbench traces it
batch_prime = prime_sieve


# ------------------------------------------------------------------- scans

@dataclass
class ScanRecord:
    d: int                      # discriminant D (negative for imaginary)
    h: int
    n: int                      # omega(|D|)
    stat: float
    is_prime_disc: bool
    structure: Optional[AbelianGroupStructure] = None
    certified: bool = True
    error: Optional[str] = None
    hp: Optional[int] = None    # emitted p-power for p_exponent scans


def scan_statistic(statistic: str, d: int, h: int, N: int, eps: float = 0.0,
                   p: int = 0) -> float:
    """The scan statistic of the field with |D| = d, class number h and
    omega(d) = N; for p_exponent it is log h_p / log sqrt(d)."""
    if statistic == "genus_normalized":
        return h / (2 ** (N - 1) * d ** (eps / 2))
    if statistic == "raw":
        return h / d ** (eps / 2)
    if statistic == "p_exponent":
        return log(p ** vp(h, p)) / log(d ** 0.5)
    raise ValueError(f"unknown statistic {statistic!r}")


def scan_candidates(lo: int, hi: int, statistic: str, eps: float = 0.0,
                    p: int = 0, arrays=None) -> list[ScanRecord]:
    """Local-maxima candidates over fundamental D with lo <= |D| <= hi.

    Every global successive maximum is a local one within its shard, so
    shard outputs can be merged (ascending |D|) and re-filtered.
    """
    if arrays is None:
        arrays = scan_arrays(hi)
    harr, fund, om, isp = arrays
    best = 0.0
    best_hp = 1   # h_p = 1 rows are never maxima
    out = []
    for d in range(max(lo, 3), hi + 1):
        if not fund[d]:
            continue
        h = int(harr[d])
        N = int(om[d])
        if statistic == "p_exponent":
            hp = p ** vp(h, p)
            if hp <= best_hp:
                continue
            best_hp = hp
            out.append(ScanRecord(-d, h, N,
                                  scan_statistic(statistic, d, h, N, p=p),
                                  bool(isp[d]), hp=hp))
            continue
        stat = scan_statistic(statistic, d, h, N, eps)
        if stat > best:
            best = stat
            out.append(ScanRecord(-d, h, N, stat, bool(isp[d])))
    return out


def merge_maxima(shards: list[list[ScanRecord]], statistic: str) -> list[ScanRecord]:
    recs = [r for shard in shards for r in shard]
    recs.sort(key=lambda r: -r.d)
    out = []
    best = 0.0
    best_hp = 1
    for r in recs:
        if statistic == "p_exponent":
            if r.hp > best_hp:
                best_hp = r.hp
                out.append(r)
        elif r.stat > best:
            best = r.stat
            out.append(r)
    return out


def scan_arrays(X: int):
    return (batch_class_numbers_imaginary(X), batch_fundamental_imaginary(X),
            batch_omega(X), prime_sieve(X))


def scan_local_maxima(max_abs_d: int, statistic: str, eps: float = 0.0,
                      p: int = 0, arrays=None) -> list[ScanRecord]:
    # |D| = 3 is the smallest imaginary discriminant
    shard = scan_candidates(3, max_abs_d, statistic, eps, p, arrays)
    return merge_maxima([shard], statistic)


@dataclass
class PrimeDiscReport:
    all_prime: bool
    violations: list


def prime_disc_report(records: list[ScanRecord]) -> PrimeDiscReport:
    bad = [r for r in records if not r.is_prime_disc]
    return PrimeDiscReport(not bad, bad)


# ---------------------------------------------------------- normic search

def normic_search(p: int, rho: int, q: int, a_range=None) -> list[ScanRecord]:
    """Search a^2 + m b^2 = 4 q^(p^rho), gcd(a, b) <= 2, for imaginary
    fields Q(sqrt(-m)) with large p-class number; emits running maxima of
    the p-part h_p."""
    Y = 4 * q ** (p ** rho)
    if a_range is None:
        a_range = range(1, isqrt(Y - 1) + 1)
    out = []
    best_hp = 0
    for a in a_range:
        B = Y - a * a
        if B <= 0:
            continue
        try:
            fac = factor(B)
        except FactorBudgetError:
            out.append(ScanRecord(0, 0, 0, 0.0, False, error=f"a={a}: factor budget"))
            continue
        # B = m b^2, m squarefree: m is the product of the primes to odd powers
        odd = [r for r, k in fac.factors if k % 2]
        m = prod(odd)
        if gcd(a, isqrt(B // m)) > 2:
            continue
        d = _discriminant(-m, len(odd))
        try:
            g = class_group_imaginary(d)
            h = g.order
            certified = d.abs <= ENUM_CAP
        except ClassNumberCapError as e:
            out.append(ScanRecord(d.value, 0, d.ramified_count, 0.0,
                                  is_prime(d.abs), error=str(e)))
            continue
        hp = p ** vp(h, p)
        if hp > best_hp:
            best_hp = hp
            out.append(ScanRecord(d.value, h, d.ramified_count,
                                  c_kp(hp, d), is_prime(d.abs),
                                  structure=g, certified=certified, hp=hp))
    return out


# --------------------------------------------- Bach's bound above the enum cap

def prime_form(D: int, q: int) -> Optional[QuadForm]:
    """Form (q, b, c) of a prime ideal above the prime q, for split and
    ramified q (q = 2 included); None if q is inert."""
    k = kronecker(D, q)
    if k == -1:
        return None
    if k == 1:
        if q == 2:
            return QuadForm(2, 1, (1 - D) // 8)
        b = sqrt_mod_prime(D, q)
        if (b - D) % 2:
            b += q
        return QuadForm(q, b, (b * b - D) // (4 * q))
    m = D // 4 if D % 4 == 0 else D
    if q == 2:
        if m % 2 == 0:
            return QuadForm(2, 0, -m // 2)
        return QuadForm(2, 2, (1 - m) // 2)
    if D % 2 == 0:
        return QuadForm(q, 2 * q, q - m // q)
    return QuadForm(q, q, (q * q - D) // (4 * q))


def class_number_bsgs(D: int) -> tuple[int, ClassGroupPresentation]:
    """(h, presentation of the whole class group) for fundamental imaginary
    D up to BSGS_CAP, from the prime ideals of norm at most 6 log^2 |D|.

    This is the GRH route, not baby-step giant-step (the name stays for
    its callers): under GRH those prime ideals generate Cl(D) (Bach, Math.
    Comp. 55, 1990), so the staircase over their reduced forms is the
    whole group, with no estimate of h and no stopping rule.  It costs
    h - 1 compositions, as enumeration does."""
    if -D > BSGS_CAP:
        raise ClassNumberCapError(f"|D| = {-D} exceeds BSGS cap {BSGS_CAP}")
    bound = int(6 * log(-D) ** 2)
    forms = (prime_form(D, q)
             for q in np.flatnonzero(prime_sieve(bound)).tolist())
    pres = _trivial_imaginary(D)
    _staircase(pres, (reduce_imaginary(f) for f in forms if f is not None))
    return pres.h, pres
