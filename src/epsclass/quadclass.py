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
one group operation per new class: h - 1 compositions for a class group
of order h.

Every class group's generators are the prime forms of norm q <= a bound, q
ascending.  Imaginary: sqrt(|D|/3), which no reduced form's a exceeds, so
the staircase is unconditional and stops at an exact h, counted up to
|D| = ENUM_CAP and summed from L(1, chi) above it, up to SERIES_CAP.  Real:
sqrt(D), since every narrow class holds a reduced form with 0 < a <
sqrt(D), so the narrow group is unconditional with no count of h+;
ENUM_CAP bounds D, for the cycle and unit walks.  class_group_imaginary
reads Cl_2's 2-rank from genus theory and presents only 2Cl_2 and the
odd Sylow subgroups of order p^v >= p^2.  An imaginary presentation
presents only its subgroup Cl^k, its canon reduce_imaginary: pram reads
p-parts, so full_imaginary_presentation gives it h and Cl_p = Cl^(h/p^v).
For p = 2 that is a genus presentation: a basis of Cl_2 whose genera span
Cl/Cl^2, and a staircase over 2Cl_2 alone, whose 2^Delta classes are the
only ones tabulated; a dlog is solved by genus, then looked up in 2Cl_2.
Both presentations give pram the same interface, Presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat, zip_longest
from math import ceil, erfc, exp, fsum, gcd, isqrt, log, pi, prod, sqrt
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .abgroup import AbelianGroupStructure, power
from .arith import (
    BudgetError,
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
    class_number_imaginary,
    compose,
    cycle_indefinite,
    principal_form,
    reduce_imaginary,
    reduce_indefinite,
    rho_indefinite,
)

ENUM_CAP = 10 ** 7
SERIES_CAP = 10 ** 13
# series terms a normic search may budget: its values of a times the
# series length at |D| = 4Y; at about 0.4 us a term on a 2-core machine,
# some 7 minutes
NORMIC_TERMS = 10 ** 9


class ClassNumberCapError(BudgetError):
    pass


# ------------------------------------------------------------- discriminants

@dataclass(frozen=True)
class Discriminant:
    value: int
    radicand: int
    prime_discs: tuple[int, ...]    # the prime discriminants, product value

    def __post_init__(self):
        D = self.value
        assert D % 4 in (0, 1)

    @property
    def abs(self) -> int:
        return abs(self.value)

    @property
    def ramified_count(self) -> int:
        return len(self.prime_discs)


def fundamental_discriminant(m: int) -> Discriminant:
    """Fundamental discriminant of Q(sqrt(m)) for squarefree m."""
    if m in (0, 1):
        raise ValueError("m must define a quadratic field")
    fac = factor(abs(m))
    if any(e > 1 for _, e in fac.factors):
        raise ValueError(f"m = {m} is not squarefree")
    return _discriminant(m, [q for q, _ in fac.factors])


def _discriminant(m: int, primes: Iterable[int]) -> Discriminant:
    """Discriminant of Q(sqrt(m)) for squarefree m, whose primes are given
    ascending.  Its prime discriminants are q* = +-q = 1 mod 4 for each odd
    q and, for D = 4m, D / prod q*, one of -4, 8 and -8: 2 divides D even
    when it does not divide m."""
    D = m if m % 4 == 1 else 4 * m
    # over a list: tuple() of a generator grew tor_scan's traced peak
    odd = tuple([q if q % 4 == 1 else -q for q in primes if q != 2])
    two = D // prod(odd)
    return Discriminant(D, m, odd if two == 1 else (two, *odd))


def radicand_of(D: int) -> int:
    """The m of Q(sqrt(m)) for fundamental D: D/4 when 4 | D, else D."""
    return D // 4 if D % 4 == 0 else D


def discriminant_from_value(D: int) -> Discriminant:
    d = fundamental_discriminant(radicand_of(D))
    if d.value != D:
        raise ValueError(f"{D} is not a fundamental discriminant")
    return d


def as_disc(x) -> Discriminant:
    return x if isinstance(x, Discriminant) else discriminant_from_value(x)


# --------------------------------------------------- staircase presentations

@dataclass
class Presentation:
    """Generators and triangular relations of a finite abelian group of
    order h: words[i] gives gens[i]^orders[i] = prod_{j<i}
    gens[j]^words[i][j].  What pram reads of a class group: gens,
    relation_columns(), structure(), and quotient() by one element's
    dlog, its exponent vector over gens; a subclass gives h and dlog."""
    gens: list
    orders: list
    words: list

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
        rels = self.relation_columns() + [self.dlog(e) for e in elements]
        return AbelianGroupStructure.from_relation_matrix(rels,
                                                          len(self.gens))

    def structure(self) -> AbelianGroupStructure:
        g = self.quotient()
        assert g.order == self.h
        return g


@dataclass
class ClassGroupPresentation(Presentation):
    """A staircase presentation: dlog_table maps every canonical class
    representative to its exponent vector over gens, the identity first."""
    dlog_table: dict
    canon: Callable
    op: Callable

    @classmethod
    def staircase(cls, identity, canon: Callable, op: Callable,
                  elements: Iterable, order: Optional[int] = None
                  ) -> "ClassGroupPresentation":
        """The group generated by elements, each canonical (never None),
        adjoined in order when not yet in the closure; identity is
        canonical too.  It stops once it holds `order` classes, before it
        draws another element, so a lazy iterable computes no element
        more; with no order it draws every one.  With an order, adjoin
        raises ValueError where the closure would outgrow it, as it does
        for a set that is not a group."""
        pres = cls([], [], [], {identity: ()}, canon, op)
        elements = iter(elements)
        while pres.h != order and (e := next(elements, None)) is not None:
            if e not in pres.dlog_table:
                pres.adjoin(e, order)
        return pres

    @property
    def h(self) -> int:
        return len(self.dlog_table)

    def dlog(self, f) -> tuple:
        v = self.dlog_table[self.canon(f)]
        return v + (0,) * (len(self.gens) - len(v))

    # a name of its own, under which perfbench's layer trace times it
    structure = Presentation.structure

    def adjoin(self, e, order: Optional[int] = None) -> None:
        """Add the canonical generator e: find its order o over the current
        closure (e^o = word in earlier gens) and extend the dlog table.
        ValueError once the walk passes order // h, the most that o can be
        in a group of `order` classes: the closure would outgrow it.

        Costs one op per new class: a single walk gives e^2, ..., e^o, and
        e, ..., e^(o-1) are the identity's row."""
        dlog, op = self.dlog_table, self.op
        x, powers = e, [e]
        for _ in (repeat(None) if order is None else
                  repeat(None, order // len(dlog) - 1)):
            if x in dlog:
                break
            x = op(x, e)
            powers.append(x)
        else:
            if x not in dlog:
                raise ValueError(f"a power walk passed {len(powers)} steps "
                                 f"in a group of order {order}")
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
    m = radicand_of(D)
    if q == 2:
        if m % 2 == 0:
            return QuadForm(2, 0, -m // 2)
        return QuadForm(2, 2, (1 - m) // 2)
    if D % 2 == 0:
        return QuadForm(q, 2 * q, q - m // q)
    return QuadForm(q, q, (q * q - D) // (4 * q))


def _prime_forms(D: int, bound: int) -> Iterator[QuadForm]:
    """prime_form(D, q) for each split or ramified prime q <= bound, q
    ascending; lazily, so that a staircase that stops draws no more."""
    for q in np.flatnonzero(prime_sieve(bound)).tolist():
        f = prime_form(D, q)
        if f is not None:
            yield f


def _within_cap(D, cap: int, what: str) -> Discriminant:
    """as_disc(D), after the cap check, so that |D| above cap raises
    ClassNumberCapError unfactored; a Discriminant is not factored again."""
    value = D.value if isinstance(D, Discriminant) else D
    if abs(value) > cap:
        raise ClassNumberCapError(f"|D| = {abs(value)} exceeds {what} {cap}")
    return as_disc(D)


def _compose_imaginary(f: QuadForm, g: QuadForm) -> QuadForm:
    return reduce_imaginary(compose(f, g))


# ------------------------------------------------- imaginary class numbers

# the L-series ends at x_N^2 = pi N^2 / |D| >= 25, with a tail below 10^-6
_SERIES_X2 = 25
_SERIES_BLOCK = 1 << 18         # terms per fsum


def _class_number(D) -> int:
    """h(D) for fundamental D < 0: counted up to |D| = ENUM_CAP, from
    L(1, chi) above it; above SERIES_CAP ClassNumberCapError, before D is
    factored.  A Discriminant is not factored again."""
    d = _within_cap(D, SERIES_CAP, "the class-number budget")
    assert d.value < 0
    if d.abs <= ENUM_CAP:
        return class_number_imaginary(d.value)
    return _class_number_series(d.value)


def _series_length(A: int) -> int:
    """The number of terms _class_number_series sums for |D| = A."""
    return ceil(sqrt(_SERIES_X2 * A / pi))


def _class_number_series(D: int) -> int:
    """h(D) = sum_{n <= N} chi(n) [erfc(x_n) + e^(-x_n^2) / (sqrt(pi) x_n)]
    for fundamental D < -4, chi = (D/.) and x_n = n sqrt(pi/|D|) (Cohen,
    GTM 138, 5.3.3); chi is Euler's criterion at the odd primes, extended
    completely multiplicatively.  The tail bound plus 2^-48 (x_n^2 + 1)
    |t_n| per term (x_n's rounding, amplified by the exponent, and each
    fsum's) must stay below 1/4, and the sum within that distance of an
    integer; otherwise ClassNumberCapError, and no h."""
    A = -D
    N = _series_length(A)
    q = np.flatnonzero(prime_sieve(N))[1:]          # the odd primes
    euler = map(pow, (D % q).tolist(), ((q - 1) // 2).tolist(), q.tolist())
    chi = np.ones(N + 1, dtype=np.int8)
    for p, c in zip([2] + q.tolist(), [kronecker(D, 2), *euler]):
        pe = p
        while c != 1 and pe <= N:       # chi(n) = chi(p)^v_p(n)
            chi[pe::pe] *= -1 if c > 1 else c
            pe *= p
    s = sqrt(pi / A)
    err = exp(-(N * s) ** 2) * sqrt(A) / (pi * (N * s) ** 2)    # the tail
    sums = []
    for lo in range(1, N + 1, _SERIES_BLOCK):
        n = np.flatnonzero(chi[lo:lo + _SERIES_BLOCK]) + lo
        x = n * s
        t = np.fromiter(map(erfc, x.tolist()), float, n.size) + \
            np.exp(-x * x) / (sqrt(pi) * x)
        sums.append(fsum((chi[n] * t).tolist()))
        err += float(((x * x + 1) * t).sum()) * 2.0 ** -48
    total = fsum(sums)
    if not (err < 0.25 and abs(total - round(total)) <= err):
        raise ClassNumberCapError(f"L(1, chi) sum for D = {D} is not "
                                  f"certified (error bound {err:.3g})")
    return round(total)


def imaginary_presentation(D, k: int = 1, order: Optional[int] = None
                           ) -> ClassGroupPresentation:
    """The subgroup Cl(D)^k, of order `order` (h from _class_number when
    not given: the whole group, for k = 1); only its classes have a dlog.
    The prime forms up to sqrt(|D|/3) generate Cl(D) unconditionally, so
    the staircase over their k-th powers stops at order; they hold for
    the maximal order only, so D is validated as _class_number does."""
    d = _within_cap(D, SERIES_CAP, "the class-number budget")
    D = d.value
    assert D < 0
    order = order or _class_number(d)
    # a ramified class has order <= 2, so for even k its k-th power is
    # the identity the staircase already holds
    powers = (power(reduce_imaginary(f), k, _compose_imaginary)
              for f in _prime_forms(D, isqrt(-D // 3)) if k % 2 or D % f.a)
    pres = ClassGroupPresentation.staircase(
        reduce_imaginary(principal_form(D)), reduce_imaginary,
        _compose_imaginary, powers, order)
    assert pres.h == order
    return pres


def _genus_vector(f: QuadForm, chars: tuple) -> int:
    """The genus of the primitive positive form f as a bit mask: bit i set
    when chi_i(f) = -1, chi_i = kronecker(chars[i], .).  chi_i is read at
    a value of f prime to chars[i]: one of a, c and a + b + c is, since a
    prime dividing a and c does not divide b."""
    a, b, c = f
    v = 0
    for i, d in enumerate(chars):
        k = kronecker(d, a) or kronecker(d, c) or kronecker(d, a + b + c)
        v |= (k < 0) << i
    return v


def _reduce_genus(v: int, echelon: list) -> tuple[int, int]:
    """(what is left of the genus v, the mask of basis forms taken out),
    v reduced by the rows (pivot bit, vector, mask of basis forms) of
    echelon, each vector free of the earlier pivots."""
    e = 0
    for pivot, row, mask in echelon:
        if v & pivot:
            v, e = v ^ row, e ^ mask
    return v, e


@dataclass
class GenusPresentation(Presentation):
    """Cl_2 of an imaginary field on a genus basis g_0, ..., g_(r-1), r =
    omega(|D|) - 1, whose genera span Cl/Cl^2; 2Cl_2 is the staircase
    `squares` over the squares g_i^2 other than 1, squares.gens[k] =
    g_(spots[k])^2.
    A dlog is the genus coordinates e of a class x over the basis, and
    twice the staircase's dlog of x prod g_i^(-e_i), which lies in the
    principal genus of Cl_2, that is 2Cl_2: only 2Cl_2's 2^Delta classes
    are tabulated, not Cl_2's 2^v."""
    squares: ClassGroupPresentation
    spots: list
    chars: tuple          # the genus characters read: all but the last
    echelon: list         # the basis genera, for _reduce_genus
    op = staticmethod(_compose_imaginary)

    @property
    def h(self) -> int:
        return self.squares.h << len(self.gens)

    def dlog(self, f) -> tuple:
        rest, e = _reduce_genus(_genus_vector(f, self.chars), self.echelon)
        assert rest == 0
        y = reduce_imaginary(f)
        for i, g in enumerate(self.gens):
            if e >> i & 1:
                y = self.op(y, g.inverse())
        out = [e >> i & 1 for i in range(len(self.gens))]
        for i, c in zip(self.spots, self.squares.dlog(y)):
            out[i] += 2 * c
        return tuple(out)


def genus_presentation(D, h: int) -> GenusPresentation:
    """Cl_2 = Cl(D)^h' of fundamental D < 0 on a genus basis, for its class
    number h = 2^v h' with v >= 1.

    Its r = omega - 1 generators are g_i = P_i^h' for the first r prime
    forms P_i whose genera are independent of the ones kept before: the
    ramified ones first, each its own h'-th power at no composition (they
    span Cl/Cl^2 whenever Cl_2 is elementary), then the split ones up to
    sqrt(|D|/3), ascending.  These prime forms generate Cl, so the kept
    genera span Cl/Cl^2 = Cl_2/2Cl_2, and the g_i generate Cl_2 (Burnside's
    basis theorem).  A relation among the g_i is even, by genus, and half
    of it is one among their squares: so Cl_2's relations are g_i^2 = 1 for
    a ramified g_i and twice the staircase's.  The prime discriminants are
    the Discriminant's, so |D| is not factored again."""
    d = as_disc(D)
    D = d.value
    assert D < 0
    v, r = vp(h, 2), d.ramified_count - 1
    assert 1 <= r <= v, (D, h, r)
    odd = h >> v
    chars = d.prime_discs[:r]
    one = reduce_imaginary(principal_form(D))
    gens, sq, echelon = [], [], []
    ramified = (prime_form(D, abs(q) if q % 2 else 2) for q in d.prime_discs)
    split = (P for P in _prime_forms(D, isqrt(-D // 3)) if D % P.a)
    for P in chain(ramified, split):
        rest, e = _reduce_genus(_genus_vector(P, chars), echelon)
        if not rest:
            continue
        echelon.append((1 << rest.bit_length() - 1, rest,
                        e ^ 1 << len(gens)))
        if D % P.a:
            g = power(reduce_imaginary(P), odd, _compose_imaginary)
            gens.append(g)
            sq.append(_compose_imaginary(g, g))
        else:           # ramified: P^odd = P and P^2 = 1
            gens.append(reduce_imaginary(P))
            sq.append(one)
        if len(gens) == r:
            break
    assert len(gens) == r, (D, gens)
    squares = ClassGroupPresentation.staircase(
        one, reduce_imaginary, _compose_imaginary, sq, 1 << v - r)
    # the ramified classes are Cl[2] (Gauss), so the split g_i fill the
    # 4-rank's dimensions of Cl/Cl^2, and their squares are a minimal
    # generating set of 2Cl_2: the staircase adjoins each, in order
    spots = [i for i, s in enumerate(sq) if s != one]
    assert squares.h == 1 << v - r and \
        squares.gens == [sq[i] for i in spots], (D, h)
    orders, words = [2] * r, [()] * r
    for i, o, w in zip(spots, squares.orders, squares.words):
        word = [0] * r
        for j, c in zip(spots, w):
            word[j] = 2 * c
        orders[i], words[i] = 2 * o, tuple(word)
    return GenusPresentation(gens, orders, words, squares, spots, chars,
                             echelon)


def narrow_presentation(D) -> ClassGroupPresentation:
    """Narrow (restricted) class group of real D: its classes are the
    cycles of reduced forms, each named by its least form.

    The sign of a alternates along a cycle, so every class holds a reduced
    form with 0 < a < sqrt(D), whose ideal of norm a is a product of prime
    ideals of norm < sqrt(D): the staircase over the prime forms up to
    isqrt(D) is the whole group, unconditionally, with no count of h+.
    They hold for the maximal order only, so D is validated by as_disc.
    ENUM_CAP is the real budget, for the cycle walks here and pram's
    fundamental-unit walk: D above it raises ClassNumberCapError, before
    D is factored.
    """
    D = _within_cap(D, ENUM_CAP, "the real budget").value
    assert D > 0
    rep_of = {}     # reduced form -> its cycle's least form
    sqD = isqrt(D)

    def canon(f):
        f = reduce_indefinite(f)
        if f not in rep_of:
            cyc = cycle_indefinite(f)
            rep_of.update(dict.fromkeys(cyc, min(cyc)))
        return rep_of[f]

    def pos(f):
        return f if f.a > 0 else rho_indefinite(f, sqD)

    def op(f, g):
        return canon(compose(pos(f), pos(g)))

    return ClassGroupPresentation.staircase(
        canon(principal_form(D)), canon, op,
        map(canon, _prime_forms(D, sqD)))


def ramified_principal_form(D: int) -> QuadForm:
    """Form of the principal ideal (sqrt(m)), of norm |m| (negative-norm
    generator): the narrow class killed when passing to the ordinary group."""
    if D % 4 == 0:
        m = D // 4
        return QuadForm(m, 0, -1)
    return QuadForm(D, D, (D - 1) // 4)


# --------------------------------------------------------------- public ops

def full_imaginary_presentation(D, p: int
                                ) -> tuple[int, ClassGroupPresentation]:
    """(h, the p-Sylow subgroup Cl(D)^(h/p^v), p^v = p^vp(h, p)), which pram
    reads for the prime p.  D is validated once, by as_disc."""
    d = as_disc(D)
    h = _class_number(d)
    q = p ** vp(h, p)
    if p == 2 and q > 1:
        return h, genus_presentation(d, h)
    return h, imaginary_presentation(d, h // q, q)


def _square_sylow_orders(h: int) -> list[int]:
    """p^v = p^vp(h, p) for each prime p with p^2 | h, by trial division up
    to isqrt of the cofactor left."""
    out, p = [], 2
    while p * p <= h:
        v = vp(h, p)
        h //= p ** v
        if v > 1:
            out.append(p ** v)
        p += 1
    return out


def class_group_imaginary(D) -> AbelianGroupStructure:
    """Cl(D) as a divisor chain, read off the Sylow subgroups over the
    exact h = 2^v h'.  Cl_2 has 2-rank r = omega(|D|) - 1 (Gauss), so
    only 2Cl_2 = Cl(D)^(2h'), of order 2^(v-r), is presented, and none
    when v = r: Cl_2's chain is 2e for each e of 2Cl_2's, then 2s.  An
    odd Sylow subgroup of order p is Z/p, and one of order p^v >= p^2 is
    presented alone, as the image of x -> x^(h/p^v) (Cohen, GTM 138,
    ch. 5).  Cl's i-th factor is the product of the Sylow chains' i-th."""
    d = as_disc(D)
    h = _class_number(d)
    v, r = vp(h, 2), d.ramified_count - 1
    squares = imaginary_presentation(d, 2 * (h >> v), 2 ** (v - r)) \
        .structure().divisors if v > r else ()
    assert len(squares) <= r, (d.value, squares, r)
    chains = [[2 * e for e in squares] + [2] * (r - len(squares))]
    sylows = _square_sylow_orders(h >> v)
    chains += [imaginary_presentation(d, h // q, q).structure().divisors
               for q in sylows]
    rest = (h >> v) // prod(sylows)
    if rest > 1:
        chains.append([rest])       # squarefree, so cyclic
    g = AbelianGroupStructure(
        tuple(map(prod, zip_longest(*chains, fillvalue=1))))
    assert g.order == h
    return g


def narrow_class_group_real(D) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value > 0
    return narrow_presentation(d).structure()


def ordinary_class_group_real(D) -> AbelianGroupStructure:
    d = as_disc(D)
    assert d.value > 0
    return narrow_presentation(d).quotient(
        ramified_principal_form(d.value))


def genus_delta(D) -> tuple[int, int]:
    """(N, Delta) with Delta = v_2(h_restricted) - (N-1); for real D it
    asserts the genus rigidity rk_2 = N - 1 of the narrow group."""
    d = as_disc(D)
    N = d.ramified_count
    if d.value < 0:
        return N, vp(_class_number(d), 2) - (N - 1)
    g = narrow_class_group_real(d)
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

def batch_class_numbers_imaginary(X: int, shard: int = 0,
                                  shards: int = 1) -> np.ndarray:
    """h[d] = number of reduced forms of discriminant -d (class number for
    fundamental -d), by direct brute-force counting of (a, b, c); only the
    forms with a = shard + 1 mod shards, so that the tables of shards
    0, ..., shards - 1 sum to the whole one."""
    h = np.zeros(X + 1, dtype=np.int32)
    for a in range(shard + 1, isqrt(X // 3) + 1, shards):
        fa = 4 * a
        for b in range(0, a + 1):
            d0 = fa * a - b * b  # c = a
            if d0 <= X:
                h[d0] += 1
            w = 2 if 0 < b < a else 1
            start = d0 + fa  # c = a + 1
            if start <= X:
                h[start:: fa] += w
    return h


# the batch-sieve name of arith.prime_sieve, under which perfbench traces it
batch_prime = prime_sieve


# ------------------------------------------------------------------- scans

# |D| per block of scan_fields and scan_candidates; lists over a whole 10^6
# range would add a quarter to a scan's peak memory
_SCAN_BLOCK = 1 << 14


@dataclass
class ScanRecord:
    d: int                      # discriminant D (negative for imaginary)
    h: int
    n: int                      # omega(|D|)
    stat: float
    is_prime_disc: bool
    structure: Optional[AbelianGroupStructure] = None
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


def _fundamental_blocks(lo: int, hi: int,
                        fund: np.ndarray) -> Iterator[np.ndarray]:
    """The fundamental |D| with max(lo, 3) <= |D| <= hi, ascending, as one
    array for each _SCAN_BLOCK consecutive |D| that holds any."""
    for start in range(max(lo, 3), hi + 1, _SCAN_BLOCK):
        ds = np.flatnonzero(fund[start:min(start + _SCAN_BLOCK, hi + 1)])
        if ds.size:
            yield ds + start


def scan_fields(lo: int, hi: int,
                arrays) -> Iterator[tuple[int, int, int, bool]]:
    """(|D|, h, omega(|D|), prime) for each fundamental D with
    max(lo, 3) <= |D| <= hi, ascending, read off the scan_arrays tables
    one block at a time."""
    harr, fund, om, isp = arrays
    for ds in _fundamental_blocks(lo, hi, fund):
        yield from zip(ds.tolist(), harr[ds].tolist(), om[ds].tolist(),
                       isp[ds].tolist())


# a record can sit this far below the running maximum in _block_statistic
# and still be one in scan_statistic; see scan_candidates
_SCAN_MARGIN = 1 - 2.0 ** -40


def _block_statistic(statistic: str, d: np.ndarray, h: np.ndarray,
                     N: np.ndarray, eps: float, p: int) -> np.ndarray:
    """scan_candidates' filter values for arrays of fields: h_p = p^v_p(h),
    exactly, for p_exponent, else scan_statistic with np.power for **."""
    if statistic == "p_exponent":
        if p < 2:
            raise ValueError(f"h_p needs p >= 2, got {p}")
        # h_p = gcd(h, q) for the largest power q of p up to max h
        q, top = 1, int(h.max())
        while q * p <= top:
            q *= p
        return np.gcd(h.astype(np.int64), q)
    x = np.power(d, eps / 2)
    if statistic == "genus_normalized":
        return h / (np.ldexp(1.0, N - 1) * x)
    if statistic == "raw":
        return h / x
    raise ValueError(f"unknown statistic {statistic!r}")


def scan_candidates(lo: int, hi: int, statistic: str, eps: float = 0.0,
                    p: int = 0, arrays=None) -> list[ScanRecord]:
    """The successive maxima over fundamental D with lo <= |D| <= hi,
    ascending: a p_exponent maximum raises h_p above 1 and every earlier
    h_p, any other the statistic above 0 and every earlier one.  arrays,
    scan_arrays' tables up to hi at least, are sieved when not given.

    _SCAN_BLOCK consecutive |D| at a time, numpy takes each field's
    statistic s and the running maximum m before it, seeded with the best
    statistic so far, and only the candidates go on to the scalar test
    against scan_statistic, which decides every record and its float.
    h_p is exact, so the candidates are the fields with s > m.  A float s
    may differ from scan_statistic's t by a relative delta of a few ulps
    (np.power against Python's **, on SIMD builds); for a record t
    exceeds the best so far and every earlier t, so s >= t(1 - delta) >
    m(1 - delta)/(1 + delta) >= m(1 - 2^-40), and the candidates s >=
    m(1 - 2^-40) hold every record.  d^(eps/2) and s are finite for
    every d <= hi when hi^(|eps|/2 + 1) is, as the CLI checks."""
    if arrays is None:
        arrays = scan_arrays(hi)
    harr, fund, om, isp = arrays
    p_exp = statistic == "p_exponent"
    out, best = [], 1 if p_exp else 0.0
    for ds in _fundamental_blocks(lo, hi, fund):
        s = _block_statistic(statistic, ds, harr[ds], om[ds], eps, p)
        m = np.maximum.accumulate(np.concatenate(([best], s[:-1])))
        cand = s > m if p_exp else s >= m * _SCAN_MARGIN
        for d in ds[cand].tolist():
            h, N = int(harr[d]), int(om[d])
            k = p ** vp(h, p) if p_exp else scan_statistic(statistic, d, h,
                                                           N, eps)
            if k > best:
                best = k
                out.append(ScanRecord(-d, h, N, scan_statistic(
                    statistic, d, h, N, eps, p), bool(isp[d]),
                    hp=k if p_exp else None))
    return out


def scan_budget(X: int) -> None:
    """ClassNumberCapError if the scan tables up to |D| = X exceed ENUM_CAP."""
    if X > ENUM_CAP:
        raise ClassNumberCapError(f"scan tables up to |D| = {X} exceed "
                                  f"the budget {ENUM_CAP}")


def scan_arrays(X: int, h: Optional[np.ndarray] = None):
    """(h, fundamental, omega, prime) arrays indexed by |D| <= X: class
    numbers, the fundamental-discriminant mask, the number of distinct
    prime divisors and the prime sieve.  One pass over the primes p up to
    sqrt(X) strikes the multiples of p^2 from the squarefree table and
    counts omega with one slice per p and one int32 cofactor table: n <= X
    has at most one prime factor above sqrt(X), and it divides n exactly
    when n stays above 1 once the powers of the smaller primes are divided
    out.  -d is fundamental when d = 3 mod 4 is squarefree or d = 4k with
    k = 1, 2 mod 4 squarefree: three slices of the squarefree table.  The
    budget is checked before any table is allocated.  h is
    batch_class_numbers_imaginary(X), sieved here unless given (the sum
    of its shards, say)."""
    scan_budget(X)
    if h is None:
        h = batch_class_numbers_imaginary(X)
    isp = prime_sieve(X)
    sf = np.ones(X + 1, dtype=bool)     # sf[0] is never read
    om = np.zeros(X + 1, dtype=np.int8)
    cof = np.arange(X + 1, dtype=np.int32)
    for p in np.flatnonzero(isp[: isqrt(X) + 1]).tolist():
        sf[p * p:: p * p] = False
        om[p::p] += 1
        q = p
        while q <= X:
            cof[q::q] //= p
            q *= p
    om += cof > 1
    fund = np.zeros(X + 1, dtype=bool)
    fund[3::4] = sf[3::4]
    fund[4::16] = sf[1: X // 4 + 1: 4]
    fund[8::16] = sf[2: X // 4 + 1: 4]
    return h, fund, om, isp


def scan_local_maxima(max_abs_d: int, statistic: str, eps: float = 0.0,
                      p: int = 0, arrays=None) -> list[ScanRecord]:
    # |D| = 3 is the smallest imaginary discriminant
    return scan_candidates(3, max_abs_d, statistic, eps, p, arrays)


@dataclass
class PrimeDiscReport:
    all_prime: bool
    violations: list


def prime_disc_report(records: list[ScanRecord]) -> PrimeDiscReport:
    bad = [r for r in records if not r.is_prime_disc]
    return PrimeDiscReport(not bad, bad)


# ---------------------------------------------------------- normic search

def normic_search(p: int, rho: int, q: int, max_a=None) -> list[ScanRecord]:
    """Search a^2 + m b^2 = 4 q^(p^rho), gcd(a, b) <= 2, a <= max_a if
    given, for imaginary fields Q(sqrt(-m)) with large p-class number;
    emits running maxima of the p-part h_p.  For q >= 2, a range of a above
    ENUM_CAP raises ClassNumberCapError before Y = 4 q^(p^rho) is formed,
    and so does one whose count of a times the length of the L-series at
    |D| = 4Y, which no field's |D| <= 4m <= 4Y exceeds, is above
    NORMIC_TERMS."""
    # isqrt(4x - 1) <= ENUM_CAP iff x <= limit, which q^n exceeds for every
    # n above its bit length, as p^rho does for rho above it
    limit = (ENUM_CAP + 1) ** 2 // 4
    n = p ** min(rho, limit.bit_length())
    if n > limit.bit_length() or q ** n > limit:
        raise ClassNumberCapError(f"a^2 + m b^2 = 4*{q}^({p}^{rho}) ranges "
                                  f"over a above the budget {ENUM_CAP}")
    Y = 4 * q ** n
    top = isqrt(Y - 1) if max_a is None else min(isqrt(Y - 1), max_a)
    terms = _series_length(4 * Y)
    if top * terms > NORMIC_TERMS:
        raise ClassNumberCapError(
            f"a^2 + m b^2 = 4*{q}^({p}^{rho}): {top} values of a, each up to "
            f"{terms} series terms, exceed the budget {NORMIC_TERMS}")
    out, best_hp = [], 0
    for a in range(1, top + 1):
        B = Y - a * a
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
        d = _discriminant(-m, odd)
        try:
            g = class_group_imaginary(d)
            h = g.order
        except ClassNumberCapError as e:
            out.append(ScanRecord(d.value, 0, d.ramified_count, 0.0,
                                  is_prime(d.abs), error=str(e)))
            continue
        hp = p ** vp(h, p)
        if hp > best_hp:
            best_hp = hp
            out.append(ScanRecord(d.value, h, d.ramified_count,
                                  c_kp(hp, d), is_prime(d.abs),
                                  structure=g, hp=hp))
    return out


# ------------------------------------------------ names perfbench reads

def class_number_bsgs(D) -> tuple[int, ClassGroupPresentation]:
    """(h, presentation of the whole class group) for fundamental D < 0.
    No src/ code calls it; perfbench checks and traces it by this name."""
    pres = imaginary_presentation(D)
    return pres.h, pres
