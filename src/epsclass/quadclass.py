"""Class groups of quadratic fields via binary quadratic forms.

Imaginary class groups (restricted = ordinary), real narrow class groups
through cycle equivalence, p-parts, the genus rigidity check
rk_2 = omega(D) - 1, epsilon-statistic scans over fundamental
discriminants, and the normic search a^2 + m b^2 = 4 q^(p^rho).

Class-group structure comes from a staircase presentation: generators are
adjoined greedily, each new generator g contributing one triangular
relation g^o = (word in earlier generators); Smith form of the relation
matrix gives the divisor chain, and the closure table doubles as a
discrete-log dictionary (reused for ray class groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, log, pi
from typing import Callable, Iterable, Optional

import numpy as np

from . import zlin
from .abgroup import AbelianGroupStructure
from .arith import (
    FactorBudgetError,
    factor,
    is_prime,
    kronecker,
    prime_sieve,
    sqrt_mod_prime,
    squarefree_core,
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
    core, cof = squarefree_core(m)
    if cof != 1:
        raise ValueError(f"m = {m} is not squarefree")
    D = m if m % 4 == 1 else 4 * m
    return Discriminant(D, m, factor(abs(D)).omega())


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

    def structure(self) -> AbelianGroupStructure:
        n = len(self.gens)
        if n == 0:
            return AbelianGroupStructure.trivial()
        cols = self.relation_columns()
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        g = AbelianGroupStructure.from_relation_matrix(rows, n)
        assert g.order == self.h
        return g

    def adjoin(self, e, rel_order: int | None = None,
               limit: int | None = None) -> None:
        """Add generator e: find its order o over the current closure
        (g^o = word in earlier gens) and extend the dlog table."""
        dlog, op = self.dlog_table, self.op
        if rel_order is None:
            k, cur = 1, e
            while cur not in dlog:
                cur = op(cur, e)
                k += 1
                if limit is not None and k > limit:
                    raise ClassNumberCapError("relative order search exhausted")
        else:
            k, cur = rel_order, self.canon_pow(e, rel_order)
        idx = len(self.gens)
        self.gens.append(e)
        self.orders.append(k)
        self.words.append(dlog[cur] + (0,) * (idx - len(dlog[cur])))
        base = list(dlog.items())
        cur = self.identity
        for j in range(1, k):
            cur = op(cur, e)
            for elt, vec in base:
                dlog[op(elt, cur)] = vec + (0,) * (idx - len(vec)) + (j,)

    def canon_pow(self, e, n: int):
        r, f = self.identity, e
        while n:
            if n & 1:
                r = self.op(r, f)
            f = self.op(f, f)
            n >>= 1
        return r


def _staircase(pres: ClassGroupPresentation, elements: Iterable) -> None:
    for e in elements:
        if e not in pres.dlog_table:
            pres.adjoin(e)


def imaginary_presentation(D: int) -> ClassGroupPresentation:
    assert D < 0 and D % 4 in (0, 1)
    forms = sorted(reduced_forms_imaginary(D))
    ident = reduce_imaginary(principal_form(D))

    def op(f, g):
        return reduce_imaginary(compose(f, g))

    pres = ClassGroupPresentation(D, [], [], [], {ident: ()}, ident,
                                  reduce_imaginary, op)
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

def class_group_imaginary(D, enum_cap: int = ENUM_CAP,
                          bsgs_cap: int = BSGS_CAP) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value < 0
    if d.abs <= enum_cap:
        return imaginary_presentation(d.value).structure()
    return bsgs_presentation(d.value, bsgs_cap).structure()


def narrow_class_group_real(D) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value > 0
    return narrow_presentation(d.value).structure()


def ordinary_class_group_real(D) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value > 0
    pres = narrow_presentation(d.value)
    extra = list(pres.dlog(ramified_principal_form(d.value)))
    n = len(pres.gens)
    if n == 0:
        return AbelianGroupStructure.trivial()
    cols = pres.relation_columns() + [extra]
    rows = [[c[i] for c in cols] for i in range(n)]
    return AbelianGroupStructure.from_relation_matrix(rows, n)


def p_part(g: AbelianGroupStructure, p: int) -> AbelianGroupStructure:
    return g.p_part(p)


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
        if statistic == "genus_normalized":
            stat = h / (2 ** (N - 1) * d ** (eps / 2))
        elif statistic == "raw":
            stat = h / d ** (eps / 2)
        elif statistic == "p_exponent":
            hp = p ** vp(h, p)
            if hp <= best_hp:
                continue
            best_hp = hp
            out.append(ScanRecord(-d, h, N, log(hp) / log(d ** 0.5),
                                  bool(isp[d]), hp=hp))
            continue
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
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
                      p: int = 0, min_abs_d: int = 3,
                      arrays=None) -> list[ScanRecord]:
    shard = scan_candidates(min_abs_d, max_abs_d, statistic, eps, p, arrays)
    return merge_maxima([shard], statistic)


@dataclass
class PrimeDiscReport:
    all_prime: bool
    violations: list


def prime_disc_report(records: list[ScanRecord]) -> PrimeDiscReport:
    bad = [r for r in records if not r.is_prime_disc]
    return PrimeDiscReport(not bad, bad)


# ---------------------------------------------------------- normic search

def normic_search(p: int, rho: int, q: int, a_range=None,
                  enum_cap: int = ENUM_CAP,
                  bsgs_cap: int = BSGS_CAP) -> list[ScanRecord]:
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
            m, b = squarefree_core(B)
        except FactorBudgetError:
            out.append(ScanRecord(0, 0, 0, 0.0, False, error=f"a={a}: factor budget"))
            continue
        if gcd(a, b) > 2:
            continue
        try:
            d = fundamental_discriminant(-m)
        except ValueError:
            continue
        try:
            g = class_group_imaginary(d, enum_cap, bsgs_cap)
            h = g.order
            certified = d.abs <= enum_cap
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


# ------------------------------------------------- BSGS above the enum cap

def prime_form(D: int, q: int) -> Optional[QuadForm]:
    """Reduced form above a split odd prime q, or None."""
    if q == 2 or kronecker(D, q) != 1:
        return None
    b = sqrt_mod_prime(D, q)
    if (b - D) % 2:
        b = q - b  # flip parity: q odd
    assert (b * b - D) % (4 * q) == 0
    return reduce_imaginary(QuadForm(q, b, (b * b - D) // (4 * q)))


@lru_cache(maxsize=1)
def _euler_table(prime_bound: int):
    """(q, bits, lift): the primes up to prime_bound in ascending order
    (2 first) as int64, the bits of their exponents (q - 1)/2 from the
    lowest up, and lift[i] = -log(1 - k/q) for k = 1 (row 0) and
    k = -1 (row 1).  Read-only: every caller shares them."""
    q = np.flatnonzero(prime_sieve(prime_bound)).astype(np.int64)
    e = (q - 1) // 2
    bits = [(e >> b) & 1 == 1 for b in range(int(e[-1]).bit_length())]
    # one Python float at a time: a list of them would raise the peak RSS
    lift = np.array([np.fromiter((-log(1.0 - k / p) for p in map(int, q)),
                                 float, len(q)) for k in (1, -1)])
    for a in (q, lift, *bits):
        a.flags.writeable = False
    return q, bits, lift


def _euler_estimate(D: int, prime_bound: int = 1 << 16) -> float:
    """h(D) for D < -4 via the truncated L(1, chi_D) Euler product.

    D must fit in int64; class_number_bsgs checks |D| <= BSGS_CAP < 2^63
    before it gets here.  Legendre symbols come from Euler's criterion
    r^((q-1)/2) mod q, with r = D mod q < 2^16 at the default bound, so
    every product stays below 2^32.  np.add.accumulate adds the terms one
    by one in ascending q (np.sum would add pairwise) and a term 0.0 for
    q | D leaves the sum as it is, so the float is the same as a loop's.
    """
    q, bits, lift = _euler_table(prime_bound)
    r = np.int64(D) % q
    leg = np.ones_like(q)
    base = r
    for bit in bits:
        leg = np.where(bit, leg * base % q, leg)
        base = base * base % q
    terms = np.where(leg == 1, lift[0], lift[1])
    terms[r == 0] = 0.0
    # q = 2 (exponent 0, so leg = 1): (D/2) is 0 for even D, else 1 for
    # D = +-1 mod 8 and -1 for D = +-3 mod 8
    if D % 8 in (3, 5):
        terms[0] = lift[1, 0]
    acc = np.add.accumulate(terms)[-1]
    return isqrt_float(-D) / pi * np.exp(acc)


def _form_pow(f: QuadForm, e: int, ident: QuadForm) -> QuadForm:
    r = ident
    while e:
        if e & 1:
            r = reduce_imaginary(compose(r, f))
        f = reduce_imaginary(compose(f, f))
        e >>= 1
    return r


def _element_order_bsgs(g: QuadForm, bound: int, ident: QuadForm) -> int:
    s = isqrt(bound) + 1
    ginv = reduce_imaginary(g.inverse())
    baby = {}
    cur = ident
    for j in range(s):
        baby.setdefault(cur, j)   # g^{-j}
        cur = reduce_imaginary(compose(cur, ginv))
    big = _form_pow(g, s, ident)
    cur = big
    for i in range(1, s + 2):
        if cur in baby:
            n = i * s + baby[cur]
            return _reduce_to_order(g, n, ident)
        cur = reduce_imaginary(compose(cur, big))
    raise ClassNumberCapError(f"no element order below {bound}")


def _reduce_to_order(g: QuadForm, n: int, ident: QuadForm) -> int:
    for q, e in factor(n).factors:
        for _ in range(e):
            if _form_pow(g, n // q, ident) == ident:
                n //= q
            else:
                break
    return n


def class_number_bsgs(D: int, bsgs_cap: int = BSGS_CAP,
                      window: float = 1.35) -> tuple[int, ClassGroupPresentation]:
    """(h, presentation of the generated subgroup) for imaginary D below
    the BSGS cap.  GRH-quality: relies on the truncated Euler product
    bracketing h within the window factor."""
    # also keeps D inside int64 for _euler_estimate (BSGS_CAP < 2^63)
    if -D > bsgs_cap:
        raise ClassNumberCapError(f"|D| = {-D} exceeds BSGS cap {bsgs_cap}")
    est = _euler_estimate(D)
    lo = max(1, int(est / window))
    hi = int(est * window) + 1
    ident = reduce_imaginary(principal_form(D))

    def op(f, g):
        return reduce_imaginary(compose(f, g))

    pres = ClassGroupPresentation(D, [], [], [], {ident: ()}, ident,
                                  reduce_imaginary, op)
    pool = (prime_form(D, q) for q in _odd_primes())
    for _ in range(64):
        hstar = pres.h
        first = ((lo + hstar - 1) // hstar) * hstar
        cands = list(range(first, hi + 1, hstar))
        if len(cands) == 1:
            return cands[0], pres
        g = next((f for f in pool if f is not None
                  and f not in pres.dlog_table), None)
        if g is None:
            raise ClassNumberCapError("generator pool exhausted")
        if hstar == 1:
            n = _element_order_bsgs(g, hi, ident)
            pres.adjoin(g, rel_order=n)
        else:
            pres.adjoin(g, limit=hi // hstar + 1)
    raise ClassNumberCapError("BSGS failed to isolate h")


def _odd_primes():
    q = 3
    while True:
        if is_prime(q):
            yield q
        q += 2


def bsgs_presentation(D: int,
                      bsgs_cap: int = BSGS_CAP) -> ClassGroupPresentation:
    """Presentation of the whole class group of imaginary D by BSGS
    (GRH-conditional): h from class_number_bsgs, then prime forms are
    adjoined until the generated subgroup has order h."""
    h, pres = class_number_bsgs(D, bsgs_cap)
    for q in _odd_primes():
        if pres.h == h:
            return pres
        if q > 10 ** 5:
            raise ClassNumberCapError("structure generators exhausted")
        f = prime_form(D, q)
        if f is not None and f not in pres.dlog_table:
            pres.adjoin(f)
