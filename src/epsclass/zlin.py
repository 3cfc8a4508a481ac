"""Exact integer linear algebra: HNF/SNF, kernels, lattice solving.

Matrices are lists of rows of Python ints.  Everything here is small
(presentations of class groups and ray class groups, at most a few dozen
rows/columns), so Bezout pivoting with exact arithmetic is fine.

Lattice bases are column echelon: `hnf_columns` returns columns whose
first nonzero rows strictly increase, and `solve_lattice` accepts only
such a basis, solving by integer forward substitution.
"""

from __future__ import annotations

from math import prod


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


def _col_bezout(A: list[list[int]], j1: int, j2: int, row: int) -> None:
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


def _row_bezout(A: list[list[int]], i1: int, i2: int, col: int) -> None:
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


def hnf_columns(M: list[list[int]]) -> list[list[int]]:
    """Column-style Hermite form: basis of the column lattice of M.

    Returns a matrix whose columns are a column echelon basis: the first
    nonzero rows of the columns strictly increase, pivots are positive,
    and zero columns are dropped.  Rows are the ambient coordinates.
    """
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
            # whole row already zero from this column on
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


def kernel_columns(M: list[list[int]]) -> list[list[int]]:
    """Integer kernel {x : Mx = 0}; columns of the result form a basis."""
    cols = len(M[0]) if M and M[0] else 0
    rows = len(M)
    if cols == 0:
        return [[] for _ in range(0)]
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


def solution_lattice(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Lattice {x : Ax in column-lattice(B)}; columns = HNF basis."""
    rows = len(A)
    na = len(A[0]) if A else 0
    nb = len(B[0]) if B and B[0] else 0
    M = [list(A[i]) + [-B[i][j] for j in range(nb)] for i in range(rows)]
    K = kernel_columns(M)
    proj = [K[i] for i in range(na)]
    return hnf_columns(proj)


def smith_diagonal(M: list[list[int]]) -> list[int]:
    """Nonzero elementary divisors of M in divisibility order d1 | d2 | ..."""
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


def presentation_divisors(relations: list[list[int]], ngens: int) -> list[int]:
    """Cyclic decomposition of Z^ngens / column-lattice(relations).

    Elementary divisors (> 1) in divisibility order d1 | d2 | ...
    Raises ValueError if the quotient is infinite.
    """
    if ngens == 0:
        return []
    if not relations or not relations[0]:
        raise ValueError("infinite quotient: no relations")
    divs = smith_diagonal(relations)
    if len(divs) < ngens:
        raise ValueError("infinite quotient: relation rank < ngens")
    return [d for d in divs if d > 1]


def lattice_index(relations: list[list[int]], ngens: int) -> int:
    """Order of Z^ngens / column-lattice(relations).

    The product of the Hermite pivots: a column echelon basis of full rank
    ngens has them on its diagonal.  Raises ValueError if the quotient is
    infinite.
    """
    if ngens == 0:
        return 1
    H = hnf_columns(relations)
    if not H or len(H[0]) < ngens:
        raise ValueError("infinite quotient: relation rank < ngens")
    return prod(H[i][i] for i in range(ngens))


def solve_lattice(B: list[list[int]], v: list[int]) -> list[int] | None:
    """Solve B x = v in integers, else None.

    B must be column echelon, as `hnf_columns` returns it: the first
    nonzero rows of its columns strictly increase.  Raises ValueError
    otherwise.  Each pivot fixes one coordinate by exact division.
    """
    rows = len(B)
    cols = len(B[0]) if B and B[0] else 0
    pivots = []
    for j in range(cols):
        r = next((i for i in range(rows) if B[i][j]), None)
        if r is None or (pivots and r <= pivots[-1]):
            raise ValueError("solve_lattice needs a column echelon basis")
        pivots.append(r)
    res = list(v)
    x = []
    for j, r in enumerate(pivots):
        q, rem = divmod(res[r], B[r][j])
        if rem:
            return None
        if q:
            for i in range(r, rows):
                res[i] -= q * B[i][j]
        x.append(q)
    return None if any(res) else x
