"""Exact integer linear algebra: HNF/SNF, kernels, lattice solving.

A lattice is a list of integer vectors: the relations of a presentation,
or the basis of a lattice, in and out.  Everything here is small
(presentations of class groups and ray class groups, at most a few dozen
vectors of a few dozen coordinates), so Bezout steps with exact
arithmetic are fine.  Matrices, as `mat_mul` multiplies them, are lists
of rows.

A basis is echelon: `hnf_columns` returns vectors whose first nonzero
coordinates strictly increase, and `solve_lattice` accepts only such a
basis, solving by integer forward substitution.
"""

from __future__ import annotations

from math import gcd


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    C = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai, Ci = A[i], C[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Ci[j] += a * Bt[j]
    return C


def mat_sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, u, v) with u*a + v*b = g >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _bezout(A: list[list[int]], i1: int, i2: int, k: int) -> None:
    """Unimodular step on the vectors A[i1], A[i2] making A[i1][k] their
    gcd and A[i2][k] = 0.  Callers skip it when A[i2][k] is already 0."""
    a, b = A[i1][k], A[i2][k]
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


def _eliminate(A: list[list[int]], dims: int) -> list[int]:
    """Bezout steps on A's vectors, coordinate by coordinate below dims,
    until its first r vectors are echelon there and the rest vanish there.
    Returns the r pivot coordinates."""
    pivots = []
    for k in range(dims):
        c = len(pivots)
        if c == len(A):
            break
        for j in range(c + 1, len(A)):
            if A[j][k]:
                _bezout(A, c, j, k)
        if A[c][k]:
            pivots.append(k)
    return pivots


def hnf_columns(vectors) -> list[list[int]]:
    """Hermite basis of the lattice the vectors span.

    The basis is echelon: the first nonzero coordinates of its vectors
    strictly increase, each pivot is positive, and the coordinates above
    a pivot lie in [0, pivot).  A lattice of rank r has r vectors.
    """
    A = [list(v) for v in vectors]
    pivots = _eliminate(A, len(A[0]) if A else 0)
    del A[len(pivots):]
    for c, k in enumerate(pivots):
        if A[c][k] < 0:
            A[c] = [-x for x in A[c]]
        piv = A[c]
        for j in range(c):
            q = A[j][k] // piv[k]
            if q:
                A[j] = [x - q * y for x, y in zip(A[j], piv)]
    return A


def kernel_columns(vectors, modulo=()) -> list[list[int]]:
    """Vectors spanning {x : sum_j x_j vectors[j] in the lattice of modulo},
    a basis when the modulo vectors are independent (a Hermite basis is).

    The negated modulo vectors go first and carry no coordinates (Cohen,
    GTM 138, Alg. 2.4.10); only the vectors' unit coordinates are tracked.
    """
    n = len(vectors)
    A = [[-x for x in b] + [0] * n for b in modulo]
    A += [list(v) + [int(i == j) for i in range(n)]
          for j, v in enumerate(vectors)]
    dims = len(A[0]) - n if A else 0
    r = len(_eliminate(A, dims))
    return [a[dims:] for a in A[r:]]


def solution_lattice(A, B) -> list[list[int]]:
    """Hermite basis of {x : sum_j x_j A[j] in the lattice of B}, for the
    images A[j] of the unit vectors under a map, B any spanning vectors
    (fastest as a Hermite basis)."""
    return hnf_columns(kernel_columns(A, B))


def smith_diagonal(vectors) -> list[int]:
    """Nonzero elementary divisors of the vectors in divisibility order
    d1 | d2 | ...

    The Smith form of a matrix is that of its transpose, so Hermite forms
    of the vectors and of their coordinates alternate until the basis is
    diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979); gcd/lcm
    exchanges then make the diagonal a divisor chain.
    """
    A = hnf_columns(vectors)
    # an echelon basis is diagonal when vector i is zero past coordinate i
    while not all(a[i] and not any(a[i + 1:]) for i, a in enumerate(A)):
        A = hnf_columns(list(zip(*A)))
    d = [a[i] for i, a in enumerate(A)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def presentation_divisors(relations, ngens: int) -> list[int]:
    """Cyclic decomposition of Z^ngens / (the lattice of the relations).

    Elementary divisors (> 1) in divisibility order d1 | d2 | ...
    Raises ValueError if the quotient is infinite.
    """
    if ngens == 0:
        return []
    divs = smith_diagonal(relations)
    if len(divs) < ngens:
        raise ValueError("infinite quotient: relation rank < ngens")
    return [d for d in divs if d > 1]


def solve_lattice(B, v: list[int]) -> list[int] | None:
    """Integer x with sum_j x_j B[j] = v, else None.

    B must be echelon, as `hnf_columns` returns it: the first nonzero
    coordinates of its vectors strictly increase.  Raises ValueError
    otherwise.  Each pivot fixes one coordinate by exact division.
    """
    pivots = []
    for b in B:
        r = next((i for i, x in enumerate(b) if x), None)
        if r is None or (pivots and r <= pivots[-1]):
            raise ValueError("solve_lattice needs an echelon basis")
        pivots.append(r)
    res = list(v)
    x = []
    for b, r in zip(B, pivots):
        q, rem = divmod(res[r], b[r])
        if rem:
            return None
        if q:
            for i in range(r, len(res)):
                res[i] -= q * b[i]
        x.append(q)
    return None if any(res) else x
