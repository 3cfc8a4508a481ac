"""Reference implementations that the tests check epsclass against.

None is used by the program: the exact carrier QuadElt stands beside
pram's images mod p^n, the ambiguous-form count beside the genus 2-rank
of the class groups, the reducedness test of indefinite forms and their
enumeration by trial division beside their cycles and the narrow class
groups built from prime forms, pram's class data over the whole class
group beside its p-Sylow data, the squarefree core from a full
factorization beside the discriminants quadclass reads off a factored
radicand, the scans' loops over every |D| beside their block walk and
successive-maxima filter, zlin's earlier column-layout Hermite form,
kernel and Smith form (a second, column Bezout step and a Smith
elimination of its own) beside zlin over vector lists, and the solution
lattice read off the whole kernel, a unit coordinate for every vector,
beside zlin's kernel modulo a lattice, the order of a quotient from the
Hermite diagonal beside the Smith form's, the (O/p^n)^x discrete log
with per-call division, an exact-integer series and lattice solves
beside pram's table lookup and fixed-precision series, the generators
of (O/p^n)^x as elements, its base ones from an exact-integer p-adic
exponential, which pram's coordinates never need, a real ideal's
generator walked along its cycle to the next |a| = 1, from a product
taken one factor at a time, beside pram's one walk of the principal
cycle and its table of every reduced principal ideal, the ray class group
stacked over every coordinate of (O/p^n)^x beside pram's over its cyclic
factors, and a vector's order modulo an echelon lattice, in one forward
pass, beside pram's lcm over those factors.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from unittest import mock

import numpy as np
import pytest

from epsclass import pram, quadclass
from epsclass.abgroup import AbelianGroupStructure, power
from epsclass.arith import factor, prime_sieve, vp
from epsclass.quadforms import QuadForm, TrackedIdeal, principal_form
from epsclass.zlin import (hnf_columns, identity, kernel_columns,
                           solve_lattice, xgcd)


@dataclass(frozen=True)
class QuadElt:
    """(x + y*sqrt(D)), x and y exact rationals: an exact gamma carrier
    for quadforms.TrackedIdeal, the reference for pram's images mod p^n."""
    x: Fraction
    y: Fraction
    D: int

    def mul(self, other: "QuadElt") -> "QuadElt":
        return QuadElt(self.x * other.x + self.y * other.y * self.D,
                       self.x * other.y + self.y * other.x, self.D)

    def div(self, other: "QuadElt") -> "QuadElt":
        n = other.norm()
        return QuadElt((self.x * other.x - self.y * other.y * self.D) / n,
                       (self.y * other.x - self.x * other.y) / n, self.D)

    def scale(self, n) -> "QuadElt":
        return QuadElt(self.x * n, self.y * n, self.D)

    def rho(self, b: int, c: int) -> "QuadElt":
        """self * (b - sqrt(D)) / (2c)."""
        return self.mul(QuadElt(Fraction(b, 2 * c), Fraction(-1, 2 * c),
                                self.D))

    def norm(self) -> Fraction:
        return self.x * self.x - self.y * self.y * self.D

    def is_unit(self) -> bool:
        """Integral (trace and norm in Z) with norm +-1."""
        return (2 * self.x).denominator == 1 and abs(self.norm()) == 1

    @classmethod
    def one(cls, D: int) -> "QuadElt":
        return cls(Fraction(1), Fraction(0), D)

    @classmethod
    def integer(cls, n, D: int) -> "QuadElt":
        return cls(Fraction(n), Fraction(0), D)


# ------------------------------------------ real generators by cycle walks

PRINCIPAL_WALK_STEPS = 200000   # rho steps before walk_generator gives up


def walk_generator(t: TrackedIdeal):
    """The generator of t's ideal, D > 0, in gamma's carrier, the way
    TrackedIdeal.principal_generator found it before pram's principal
    cycle table: from t's reduced form along its cycle to the next form
    with |a| = 1, whose ideal is O.  ValueError if the walk comes back to
    its start first (the ideal is not principal) or runs out of steps."""
    cur = t.reduce()
    start = cur.form
    for _ in range(PRINCIPAL_WALK_STEPS):
        if abs(cur.form.a) == 1:
            return cur.gamma
        cur = cur.rho_step()
        if cur.form == start:
            raise ValueError("ideal is not principal")
    raise ValueError("walk exhausted")


def walk_relation(forms, col, D: int) -> tuple:
    """(beta, den) with prod_j I_j^{c_j} = (beta / den) exactly, for the
    forms I_j (a > 0) of real D: the product taken one factor at a time
    from O, conj(I_j) = (a_j) / I_j for c_j < 0 as in pram._lift_relation,
    and its generator walked (walk_generator) rather than looked up."""
    one = QuadElt.one(D)
    t, den = TrackedIdeal(principal_form(D), one), 1
    for f, c in zip(forms, col):
        if c < 0:
            f = f.inverse()
            den *= f.a ** -c
        for _ in range(abs(c)):
            if t.form.a < 0:
                t = t.rho_step()
            t = t.mul(TrackedIdeal(f, one)).reduce()
    return walk_generator(t), den


def squarefree_core(n: int) -> tuple[int, int]:
    """(core, cof) with n = core * cof^2 and core squarefree, n != 0."""
    if n == 0:
        raise ValueError("squarefree_core expects nonzero n")
    sign = -1 if n < 0 else 1
    core = 1
    cof = 1
    for q, e in factor(abs(n)).factors:
        if e % 2:
            core *= q
        cof *= q ** (e // 2)
    return sign * core, cof


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


def is_reduced_indefinite(f) -> bool:
    """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, for the form
    f = (a, b, c) of non-square discriminant D > 0."""
    D, b, ta = f.disc(), f.b, 2 * abs(f.a)
    return (0 < b and b * b < D and (ta + b) ** 2 > D
            and (ta <= b or (ta - b) ** 2 < D))


def reduced_forms_indefinite(D: int) -> list[QuadForm]:
    """All primitive reduced forms of non-square discriminant D > 0, by
    trial division of (D - b^2)/4 = -ac over 0 < b < sqrt(D), about D/4
    steps: the reference for the cycles of narrow_presentation, which
    reaches every class from the prime forms below sqrt(D)."""
    out = []
    sqD = isqrt(D)
    for b in range(D % 2 or 2, sqD + 1, 2):
        M = (D - b * b) // 4
        for a in range(max(1, (sqD - b) // 2), (sqD + b + 1) // 2 + 1):
            if M % a:
                continue
            f = QuadForm(a, b, -(M // a))
            if is_reduced_indefinite(f) and gcd(gcd(a, b), f.c) == 1:
                out += [f, QuadForm(-a, b, -f.c)]
    return out


def scan_candidates_loop(lo, hi, statistic, eps=0.0, p=0, arrays=None):
    """quadclass.scan_candidates as a loop over every |D| in the window,
    with the running maximum of h_p or of the statistic kept by hand: the
    reference for the block walk and the successive-maxima filter."""
    if arrays is None:
        arrays = quadclass.scan_arrays(hi)
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
            out.append(quadclass.ScanRecord(
                -d, h, N, quadclass.scan_statistic(statistic, d, h, N, p=p),
                bool(isp[d]), hp=hp))
            continue
        stat = quadclass.scan_statistic(statistic, d, h, N, eps)
        if stat > best:
            best = stat
            out.append(quadclass.ScanRecord(-d, h, N, stat, bool(isp[d])))
    return out


def omega_loop(X: int) -> np.ndarray:
    """omega(n) for 0 <= n <= X by one slice per prime up to X: the
    reference for scan_arrays, which slices only the primes up to sqrt(X)
    and finds the one larger prime factor in a cofactor table."""
    om = np.zeros(X + 1, dtype=np.int8)
    for p in np.flatnonzero(prime_sieve(X)):
        om[p::p] += 1
    return om


def scan_windows(X: int, seed: int, count: int = 8) -> list[tuple[int, int]]:
    """(lo, hi) windows for the scan references: lo < 3, |D| = 3 alone, no
    fundamental |D| (5..6 and 16..18), lo > hi, all of [3, X], and count
    seeded windows in [3, X]."""
    rng = random.Random(seed)
    return [(-5, 40), (0, 2), (3, 3), (5, 6), (16, 18), (50, 10), (3, X)] + [
        tuple(sorted(rng.sample(range(3, X + 1), 2))) for _ in range(count)]


def quad_scan_rows_loop(lo, hi, statistic, eps, p, arrays):
    """The rows of quad-scan, one per fundamental |D| in [max(lo, 3), hi],
    by a loop over every |D|."""
    harr, fund, om, isp = arrays
    rows = []
    for d in range(max(lo, 3), hi + 1):
        if not fund[d]:
            continue
        h, N = int(harr[d]), int(om[d])
        s = quadclass.scan_statistic(statistic, d, h, N, eps, p)
        rows.append((-d, h, N, s, int(bool(isp[d])), "", ""))
    return rows


def redei_kind(d) -> str:
    """Which basis of Cl_2 = Cl[2] a field of Redei 4-rank 0 takes: none
    for omega = 1, else by D: odd, 8 | D, or D = 4 mod 8, the one that
    holds the prime above 2."""
    D = d.value
    return "omega=1" if d.ramified_count == 1 else \
        "odd" if D % 2 else "8|D" if D % 8 == 0 else "4 mod 8"


@contextmanager
def whole_groups():
    """pram's class data over the whole class group, as before they
    presented the p-Sylow subgroup alone: the imaginary ones over an
    enumerated h, the real ones over the narrow staircase at every p; the
    cached class data are dropped on entry and exit, so that neither side
    reads the other's."""
    real = mock.patch.object(pram, "real_presentation",
                             lambda D, p: quadclass.narrow_presentation(D))
    pram._class_data.cache_clear()
    try:
        with mock.patch.object(pram, "full_imaginary_presentation",
                               lambda D, p: quadclass.class_number_bsgs(D)), \
                real:
            yield
    finally:
        pram._class_data.cache_clear()


@pytest.fixture
def whole_group():
    """whole_groups() for the length of a test."""
    with whole_groups():
        yield


# ------------------------------------------------ (O/p^n)^x discrete logs

def log_kmax(n: int, k: int) -> int:
    """The last term of pram's p-adic log table mod p^n on 1 + p^k O before
    the table was cut at the last term that need not vanish."""
    return (n + 2 * n.bit_length() + 6) // k + 8


def residue_generators(U: pram.ResidueUnits) -> tuple:
    """The units of O/p^n that the coordinates over U's two layers count:
    the top generators as U lifts them (-1 for -1's point), then exp(p^k)
    and exp(p^k omega), whose logs p^k and p^k omega are the base
    coordinates (1, 0) and (0, 1).  The exponential is summed in exact
    integers, x^m / m! = (x^m / p^v) / u for m! = p^v * u, over m up to
    4n + 10, past which every term is 0 mod p^n for x in p^k O; k = 2 for
    p = 2 and 1 otherwise (k <= n)."""
    R, p, n, q = U.ring, U.p, U.n, U.ring.q
    pk = p ** min(2 if p == 2 else 1, n)

    def exp(x):
        s, xm, fac = [1, 0], x, 1
        for m in range(1, 4 * n + 11):
            if m > 1:
                xm = R.mul_exact(xm, x)
            fac *= m
            pv = p ** vp(fac, p)
            if xm[0] % pv or xm[1] % pv:
                raise pram.PramError("p-adic series lost exactness")
            c = pow(fac // pv, -1, q)
            s = [a + b // pv * c for a, b in zip(s, xm)]
        return (s[0] % q, s[1] % q)

    return (*U.lifts, exp((pk, 0)), exp((0, pk)))


def residue_dlog_reference(U: pram.ResidueUnits, u) -> tuple:
    """u's coordinates over U's two layers, which pram's dlog took before
    its top table and its cyclic factors: the top dlog, u divided by that
    word in the top generators as U lifts them, with fresh powers and an
    inverse, and the base log summed in exact integers over every term up
    to kmax, whose coordinates over p^k O come from zlin.solve_lattice;
    the base 1 + p^k O, k = 2 for p = 2 and 1 otherwise (k <= n), is the
    units on the point (1, 0) of the p^k box."""
    R, p, n, q = U.ring, U.p, U.n, U.ring.q
    if not R.is_unit(u):
        raise pram.PramError(f"not a unit mod p^n: {u}")
    v = U._top.dlog(u)
    d = R.one
    for g, e in zip(U.lifts, v):
        if e:
            d = R.mul(d, power(g, e, R.mul))
    x, y = R.mul(u, R.inv(d))
    k = min(2 if p == 2 else 1, n)
    pk = p ** k
    if (x % pk, y % pk) != (1, 0):
        raise pram.PramError("element is not in the base layer")
    z = [(x - 1) % q, y % q]
    s, zk = [0, 0], z
    for m in range(1, log_kmax(n, k) + 1):
        if m > 1:
            zk = R.mul_exact(zk, z)
        e = vp(m, p)
        if zk[0] % p ** e or zk[1] % p ** e:
            raise pram.PramError("p-adic series lost exactness")
        c = (-1) ** (m + 1) * pow(m // p ** e, -1, q)
        s = [a + b // p ** e * c for a, b in zip(s, zk)]
    return v + tuple(solve_lattice([[pk, 0], [0, pk]], [a % q for a in s]))


def ray_class_group_reference(D, p: int, n: int):
    """pram.ray_class_group(D, p, n) as it was stacked before the ring kept
    its cyclic factors: one Smith form over the ring's ngens coordinates
    and the class group's t generators, of the ring's relation columns, the
    image of -1, zeta's or eps's, and the class relations, every image
    from residue_dlog_reference."""
    d = quadclass.as_disc(D)
    cd = pram._class_data(d, p)
    U = pram.ResidueUnits(d.value, p, n)
    q, t = U.ring.q, len(cd.pres.gens)

    def image(x, y):
        return list(residue_dlog_reference(U, (x % q, y % q)))

    cols = [list(c) + [0] * t for c in U.rel_cols]
    cols += [image(x, y) + [0] * t for x, y in [(-1, 0), *cd.units]]
    cols += [[-e for e in image(x, y)] + col for col, (x, y) in cd.relations]
    return AbelianGroupStructure.from_relation_matrix(cols, U.ngens + t)


# ------------------------------------------- zlin in the column layout
#
# A matrix is a list of rows and its columns are the vectors, so callers
# transposed their relation vectors into it; zlin now takes the vectors.

def _col_bezout(A, j1, j2, row):
    """Column ops making A[row][j1] = gcd, A[row][j2] = 0."""
    a, b = A[row][j1], A[row][j2]
    if b == 0:
        return
    if a == 0:
        for r in A:
            r[j1], r[j2] = r[j2], r[j1]
        return
    if b % a == 0:
        q = b // a
        for r in A:
            r[j2] -= q * r[j1]
        return
    g, u, v = xgcd(a, b)
    p, q = a // g, b // g
    for r in A:
        x, y = r[j1], r[j2]
        r[j1] = u * x + v * y
        r[j2] = p * y - q * x


def _row_bezout(A, i1, i2, col):
    """Row ops making A[i1][col] = gcd, A[i2][col] = 0."""
    a, b = A[i1][col], A[i2][col]
    if b == 0:
        return
    if a == 0:
        A[i1], A[i2] = A[i2], A[i1]
        return
    if b % a == 0:
        q = b // a
        A[i2] = [y - q * x for x, y in zip(A[i1], A[i2])]
        return
    g, u, v = xgcd(a, b)
    p, q = a // g, b // g
    r1, r2 = A[i1], A[i2]
    A[i1] = [u * x + v * y for x, y in zip(r1, r2)]
    A[i2] = [p * y - q * x for x, y in zip(r1, r2)]


def hnf_columns_reference(M):
    """Column echelon basis of the column lattice of M, as a matrix whose
    columns are the basis vectors; zero columns are dropped."""
    if not M:
        return []
    A = [list(r) for r in M]
    rows = len(A)
    cols = len(A[0]) if A[0] else 0
    col = 0
    for row in range(rows):
        if col >= cols:
            break
        for j in range(col + 1, cols):
            _col_bezout(A, col, j, row)
        if A[row][col] == 0:
            if any(A[row][j] for j in range(col, cols)):
                raise AssertionError("bezout elimination failed")
            continue
        if A[row][col] < 0:
            for r in A:
                r[col] = -r[col]
        for j in range(col):
            q = A[row][j] // A[row][col]
            if q:
                for r in A:
                    r[j] -= q * r[col]
        col += 1
    keep = [j for j in range(cols) if any(A[i][j] for i in range(rows))]
    return [[A[i][j] for j in keep] for i in range(rows)]


def kernel_columns_reference(M):
    """Integer kernel {x : Mx = 0}; the columns of the result are a basis."""
    cols = len(M[0]) if M and M[0] else 0
    rows = len(M)
    if cols == 0:
        return []
    if rows == 0:
        return identity(cols)
    A = [list(r) for r in M] + identity(cols)
    col = 0
    for row in range(rows):
        if col >= cols:
            break
        for j in range(col + 1, cols):
            _col_bezout(A, col, j, row)
        if A[row][col]:
            col += 1
    ker_cols = [j for j in range(cols)
                if all(A[i][j] == 0 for i in range(rows))]
    return [[A[rows + i][j] for j in ker_cols] for i in range(cols)]


def solution_lattice_reference(A, B):
    """Hermite basis of {x : sum_j x_j A[j] in the lattice of B}: the
    relations among A's vectors and the negated B, each vector with its
    own unit coordinate, cut to their first len(A) coordinates."""
    n = len(A)
    K = kernel_columns(list(A) + [[-x for x in b] for b in B])
    return hnf_columns([k[:n] for k in K])


def smith_diagonal_reference(M):
    """Nonzero elementary divisors of M in divisibility order d1 | d2 | ...,
    by row and column elimination with a divisibility fix-up."""
    if not M or not M[0]:
        return []
    A = [list(r) for r in M]
    rows, cols = len(A), len(A[0])
    divs = []
    s = 0
    while s < min(rows, cols):
        if all(A[i][j] == 0 for i in range(s, rows) for j in range(s, cols)):
            break
        while True:
            for j in range(s + 1, cols):
                _col_bezout(A, s, j, s)
            for i in range(s + 1, rows):
                _row_bezout(A, s, i, s)
            if all(A[s][j] == 0 for j in range(s + 1, cols)):
                d = abs(A[s][s])
                if d == 0:
                    # row s and column s vanished; bring in a nonzero entry
                    i0, j0 = next((i, j) for i in range(s, rows)
                                  for j in range(s, cols) if A[i][j])
                    A[s], A[i0] = A[i0], A[s]
                    for r in A:
                        r[s], r[j0] = r[j0], r[s]
                    continue
                # divisibility fix-up: fold a non-divisible row into row s
                bad = next((i for i in range(s + 1, rows)
                            if any(A[i][j] % d for j in range(s + 1, cols))),
                           None)
                if bad is None:
                    break
                A[s] = [x + y for x, y in zip(A[s], A[bad])]
        divs.append(abs(A[s][s]))
        s += 1
    return divs


def determinant(M) -> Fraction:
    """det M for a square list of rows M, by exact rational elimination."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if A[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            A[j], A[piv] = A[piv], A[j]
            det = -det
        det *= A[j][j]
        for i in range(j + 1, n):
            f = A[i][j] / A[j][j]
            A[i] = [x - f * y for x, y in zip(A[i], A[j])]
    return det


def lattice_index(relations, ngens: int) -> int:
    """Order of Z^ngens / (the lattice of the relations).

    The product of the Hermite pivots: an echelon basis of full rank
    ngens has them on its diagonal.  Raises ValueError if the quotient is
    infinite.  The reference for the orders of
    AbelianGroupStructure.from_relation_matrix and filtration.module_order.
    """
    if ngens == 0:
        return 1
    H = hnf_columns(relations)
    if len(H) < ngens:
        raise ValueError("infinite quotient: relation rank < ngens")
    return prod(H[i][i] for i in range(ngens))


def order_modulo(B, v: list[int]) -> int:
    """The least m >= 1 with m*v in the lattice of B: the order of v in
    Z^n modulo that lattice, n = len(v).  The reference for the order of a
    unit's image, beside pram's lcm over the ring's cyclic factors.

    B must be a full-rank echelon basis of n vectors with its pivots on
    the diagonal, B[c][c] != 0 and B[c][k] = 0 for k < c, as `hnf_columns`
    returns for a lattice of finite index; raises ValueError otherwise.
    One forward pass: at each pivot the multiple m*v, less the basis
    vectors already taken, is scaled by the least factor that makes its
    coordinate there a multiple of the pivot, so m is the product of the
    factors.
    """
    n = len(v)
    if len(B) != n or any(len(b) != n or not b[c] or any(b[:c])
                          for c, b in enumerate(B)):
        raise ValueError("order_modulo needs a full-rank echelon basis "
                         "with its pivots on the diagonal")
    m, res = 1, list(v)
    for c, b in enumerate(B):
        x, piv = res[c], b[c]
        if not x:
            continue
        s = abs(piv) // gcd(x, piv)
        if s > 1:
            m *= s
            res = [s * y for y in res]
        q = res[c] // piv
        res = [y - q * z for y, z in zip(res, b)]
    return m
