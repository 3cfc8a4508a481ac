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
beside zlin's kernel modulo a lattice, and the (O/p^n)^x discrete log
with per-call division, an exact-integer series and lattice solves
beside pram's table lookup and fixed-precision series.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from unittest import mock

import numpy as np
import pytest

from epsclass import pram, quadclass
from epsclass.abgroup import power
from epsclass.arith import factor, prime_sieve, vp
from epsclass.quadforms import QuadForm
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

    def scale(self, n) -> "QuadElt":
        return QuadElt(self.x * n, self.y * n, self.D)

    def rho(self, b: int, c: int) -> "QuadElt":
        """self * (b - sqrt(D)) / (2c)."""
        return self.mul(QuadElt(Fraction(b, 2 * c), Fraction(-1, 2 * c),
                                self.D))

    def norm(self) -> Fraction:
        return self.x * self.x - self.y * self.y * self.D

    @classmethod
    def one(cls, D: int) -> "QuadElt":
        return cls(Fraction(1), Fraction(0), D)

    @classmethod
    def integer(cls, n, D: int) -> "QuadElt":
        return cls(Fraction(n), Fraction(0), D)


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


@contextmanager
def whole_groups():
    """pram's imaginary class data over the whole class group, as before
    they presented the p-Sylow subgroup alone (enumerated h only); the
    cached class data are dropped on entry and exit, so that neither side
    reads the other's."""
    pram._class_data.cache_clear()
    try:
        with mock.patch.object(pram, "full_imaginary_presentation",
                               lambda D, p: quadclass.class_number_bsgs(D)):
            yield
    finally:
        pram._class_data.cache_clear()


@pytest.fixture
def whole_group():
    """whole_groups() for the length of a test."""
    with whole_groups():
        yield


# ------------------------------------------------ (O/p^n)^x discrete logs

def log_kmax(n: int, e: int, c0: int) -> int:
    """The last term of pram's p-adic log table mod p^n on 1 + P^c0 before
    the table was cut at the last term that need not vanish."""
    return (e * (n + 2 * n.bit_length() + 6)) // c0 + 8


def residue_dlog_reference(U: pram.ResidueUnits, u) -> tuple:
    """U.dlog(u) the way pram took it before its top table: the top dlog,
    u divided by that word in U.gens with fresh powers and an inverse, and
    the base log summed in exact integers over every term up to kmax,
    whose coordinates, like the base membership, come from
    zlin.solve_lattice."""
    R, p, n, q = U.ring, U.p, U.n, U.ring.q
    if not R.is_unit(u):
        raise pram.PramError(f"not a unit mod p^n: {u}")
    v = U._top.dlog(u)
    d = R.one
    for g, e in zip(U.gens, v):
        if e:
            d = R.mul(d, power(g, e, R.mul))
    x, y = R.mul(u, R.inv(d))
    z = [(x - 1) % q, y % q]
    H = [list(h) for h in U._Lc0]
    if solve_lattice(H, z) is None:
        raise pram.PramError("element is not in the base layer")
    s, zk = [0, 0], z
    for k in range(1, log_kmax(n, U.e, U.c0) + 1):
        if k > 1:
            zk = R.mul_exact(zk, z)
        e = vp(k, p)
        if zk[0] % p ** e or zk[1] % p ** e:
            raise pram.PramError("p-adic series lost exactness")
        c = (-1) ** (k + 1) * pow(k // p ** e, -1, q)
        s = [a + b // p ** e * c for a, b in zip(s, zk)]
    return v + tuple(solve_lattice(H, [a % q for a in s]))


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
