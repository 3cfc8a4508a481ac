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
`smith_diagonal` takes no Hermite form: it is one elimination in place,
with no alternation of Hermite forms of the vectors and of their
transpose (Kannan and Bachem).
"""

from __future__ import annotations

from itertools import chain
from math import gcd


def identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


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


def smith_diagonal(vectors, transform: bool = False):
    """Nonzero elementary divisors of the vectors in divisibility order
    d1 | d2 | ...

    One elimination in place on the vectors as rows (Cohen, GTM 138,
    Alg. 2.4.14), with no Hermite form; rows left zero are dropped.
    - While an entry is +-1, it is the pivot.  Row steps clear its
      column, and it splits off with its row and column as a divisor 1:
      a unit pivot needs no column steps.
    - With no +-1 left, if every row has one nonzero entry, the divisors
      are the gcds of the entries of each column.
    - Otherwise the pivot is an entry of least absolute value.  Row steps
      reduce its column and then column steps its row, which, its column
      clear, change that row alone.  A nonzero remainder, smaller, is the
      next pivot; a pivot alone in its row and column splits off.
    gcd/lcm exchanges then make the divisors a chain, unless sorting
    already did.

    With transform, (divisors, forms): for vectors of n coordinates, the
    n columns w_1, ..., w_n of a unimodular matrix, such that x -> (x.w_1,
    ..., x.w_n) maps the lattice of the vectors onto d1 Z + ... + dr Z in
    its first r coordinates: Z^n modulo that lattice is sum Z/d_i plus the
    last n - r coordinates, free.  The same elimination, with every column
    step (a unit pivot's too, which clear its row) and every gcd/lcm
    exchange applied to the forms.
    """
    A = [list(v) for v in vectors if any(v)]
    d = []
    if transform:
        n = len(vectors[0]) if vectors else 0
        # the forms: W beside A's columns, split beside d
        W, split = identity(n), []
    while A:
        for i, a in enumerate(A):
            if 1 in a:
                j = a.index(1)
                break
            if -1 in a:
                j = a.index(-1)
                break
        else:
            w = len(A[0]) - 1
            if all(r.count(0) == w for r in A):
                col_gcd = {}
                for r in A:
                    x = sum(r)
                    j = r.index(x)
                    col_gcd[j] = gcd(col_gcd.get(j, 0), x)
                d += col_gcd.values()
                if transform:
                    split += [W[j] for j in col_gcd]
                    W = [c for j, c in enumerate(W) if j not in col_gcd]
                break
            m = min(map(abs, filter(None, chain.from_iterable(A))))
            i, a = next((i, a) for i, a in enumerate(A)
                        if m in a or -m in a)
            j = a.index(m) if m in a else a.index(-m)
        while True:
            a = A[i]
            p = a[j]
            # row steps: column j down to remainders, the least one next
            nxt = None
            for k, r in enumerate(A):
                c = r[j]
                if c and k != i:
                    q = c // p
                    if q:
                        r = A[k] = [x - q * y for x, y in zip(r, a)]
                        c = r[j]
                    if c and (nxt is None or abs(c) < abs(A[nxt][j])):
                        nxt = k
            if nxt is not None:
                i = nxt
                continue
            if (p == 1 or p == -1) and not transform or \
                    a.count(0) == len(a) - 1:
                break
            # column steps: row i's entries reduce mod p (to 0 for a unit
            # pivot, which only the transform needs)
            if transform:
                wj = W[j]
                for k, x in enumerate(a):
                    q = x // p
                    if q and k != j:
                        W[k] = [y - q * z for y, z in zip(W[k], wj)]
                if p == 1 or p == -1:
                    break
            a[:] = [x % p for x in a]
            a[j] = p
            m = min(map(abs, filter(None, a)))
            if m == abs(p):
                break
            j = a.index(m) if m in a else a.index(-m)
        if transform:
            split.append(W.pop(j))
        d.append(abs(p))
        del A[i]
        for r in A:
            del r[j]
        A = [r for r in A if any(r)]
    if not transform:
        d.sort()
    elif any(a > b for a, b in zip(d, d[1:])):
        order = sorted(range(len(d)), key=d.__getitem__)
        d, split = [d[i] for i in order], [split[i] for i in order]
    if any(b % a for a, b in zip(d, d[1:])):
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                a, b = d[i], d[j]
                if b % a == 0:
                    continue
                g = gcd(a, b)
                d[i], d[j] = g, a // g * b
                if transform:
                    # Z/a + Z/b -> Z/g + Z/lcm by (x, y) -> (x + y,
                    # -v (b/g) x + u (a/g) y), of determinant 1
                    _, u, v = xgcd(a, b)
                    wi, wj = split[i], split[j]
                    s, t = -v * (b // g), u * (a // g)
                    split[i] = [x + y for x, y in zip(wi, wj)]
                    split[j] = [s * x + t * y for x, y in zip(wi, wj)]
    if not transform:
        return d
    return d, split + W


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
