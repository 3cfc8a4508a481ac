import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from epsclass import zlin
from epsclass.abgroup import AbelianGroupStructure, power
from epsclass.arith import factor
from epsclass.quadforms import (
    compose,
    reduce_imaginary,
    reduced_forms_imaginary,
)
from oracles import (
    determinant,
    hnf_columns_reference,
    kernel_columns_reference,
    lattice_index,
    order_modulo,
    smith_diagonal_reference,
    solution_lattice_reference,
)


def test_smith_diagonal_known():
    assert zlin.smith_diagonal([[3, 0], [0, 3]]) == [3, 3]
    assert zlin.smith_diagonal([[2, 4], [4, 4]]) == [2, 4]
    assert zlin.smith_diagonal([[1, 0], [0, 0]]) == [1]


def test_smith_diagonal_random_det_invariant():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(1, 5)
        M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        divs = zlin.smith_diagonal(M)
        det = determinant(M)
        if det:
            prod = 1
            for d in divs:
                prod *= d
            assert prod == abs(det)
            # chain divisibility
            for a, b in zip(divs, divs[1:]):
                assert b % a == 0


def test_kernel_columns():
    K = zlin.kernel_columns([[1], [2], [3]])
    # the relations x with x1 + 2x2 + 3x3 = 0, a rank-2 lattice
    assert len(K) == 2 and len(K[0]) == 3
    for x in K:
        assert x[0] + 2 * x[1] + 3 * x[2] == 0


def test_kernel_random_membership():
    rng = random.Random(2)
    for _ in range(50):
        dims, n = rng.randrange(1, 4), rng.randrange(1, 5)
        V = [[rng.randrange(-5, 6) for _ in range(dims)] for _ in range(n)]
        for x in zlin.kernel_columns(V):
            assert len(x) == n
            assert all(sum(x[j] * V[j][i] for j in range(n)) == 0
                       for i in range(dims))


def test_solution_lattice():
    # {x in Z^2 : x1 + x2 in 3Z}: the map sends e1 and e2 to 1
    L = zlin.solution_lattice([[1], [1]], [[3]])
    # index of L in Z^2 must be 3
    assert abs(L[0][0] * L[1][1] - L[0][1] * L[1][0]) == 3


def test_hnf_columns_preserves_lattice():
    rng = random.Random(3)
    for _ in range(30):
        dims, n = rng.randrange(1, 4), rng.randrange(1, 5)
        V = [[rng.randrange(-5, 6) for _ in range(dims)] for _ in range(n)]
        H = zlin.hnf_columns(V)
        # every original vector is solvable in H
        for v in V:
            if any(v):
                assert zlin.solve_lattice(H, v) is not None


@st.composite
def _matrices(draw):
    """Rectangular integer matrices (lists of rows), half of them of rank
    at most 2: a product of a rows x k and a k x cols matrix."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.integers(-9, 9)

    def mat(r, c):
        return [draw(st.lists(entry, min_size=c, max_size=c))
                for _ in range(r)]

    if draw(st.booleans()):
        return mat(rows, cols)
    k = draw(st.integers(0, 2))
    P, Q = mat(rows, k), mat(k, cols)
    return [[sum(P[i][t] * Q[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)]


def _columns(M):
    """The columns of the list of rows M, as vectors."""
    cols = len(M[0]) if M else 0
    return [[r[j] for r in M] for j in range(cols)]


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_zlin_matches_the_column_layout_reference(M):
    # the vectors are M's columns: Hermite and kernel bases are the
    # reference's columns, the divisors the reference's own
    V = _columns(M)
    H = hnf_columns_reference(M)
    assert zlin.hnf_columns(V) == _columns(H)
    K = kernel_columns_reference(M)
    assert zlin.kernel_columns(V) == _columns(K)
    assert zlin.smith_diagonal(V) == smith_diagonal_reference(M)
    assert zlin.smith_diagonal(M) == smith_diagonal_reference(M)


@st.composite
def _smith_inputs(draw):
    """Matrices (lists of rows) that reach every branch of smith_diagonal:
    every shape from 1 x 1 to 9 x 9, entries up to 2^64, rank below the
    shape through a product, zero rows and zero columns put in; either
    dense in +-1, or scaled by c >= 2 so that no entry is +-1 and every
    pivot is a least entry whose remainders pivot again."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    bound = draw(st.sampled_from([1, 9, 2 ** 16, 2 ** 64]))
    units = draw(st.booleans())
    entry = st.integers(-bound, bound)
    if units:
        entry = st.sampled_from([-1, 0, 1]) | entry

    def mat(r, c, e):
        return [draw(st.lists(e, min_size=c, max_size=c)) for _ in range(r)]

    if draw(st.booleans()):
        M = mat(rows, cols, entry)
    else:
        k = draw(st.integers(0, min(rows, cols) - 1))
        P, Q = mat(rows, k, st.integers(-3, 3)), mat(k, cols, entry)
        M = [[sum(P[i][t] * Q[t][j] for t in range(k)) for j in range(cols)]
             for i in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        M[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for r in M:
            r[j] = 0
    if not units:
        c = draw(st.integers(2, 2 ** 16))
        M = [[c * x for x in r] for r in M]
    return M


@seed(20261020)
@settings(max_examples=500, deadline=None)
@given(_smith_inputs())
@example([[1]])
@example([[0]])
@example([[6, 10], [10, 15]])       # no unit, remainders both ways
@example([[2 ** 64, 0], [0, -(2 ** 64) - 1]])
def test_smith_diagonal_matches_the_reference(M):
    want = smith_diagonal_reference(M)
    assert zlin.smith_diagonal(M) == want
    assert zlin.smith_diagonal(_columns(M)) == want


def _assert_smith_transform(M):
    """smith_diagonal(M, transform=True) gives the divisors d of the plain
    call and n forms, the columns of a unimodular matrix, taking every
    vector of M into d_1 Z + ... + d_r Z on the first r forms and to 0 on
    the rest: with |det| = 1 and the same divisors, M's lattice goes onto
    that one."""
    d, forms = zlin.smith_diagonal(M, transform=True)
    assert d == zlin.smith_diagonal(M)
    n = len(M[0])
    assert len(forms) == n and all(len(w) == n for w in forms)
    assert abs(determinant(forms)) == 1
    for r in M:
        image = [sum(x * y for x, y in zip(r, w)) for w in forms]
        assert all(y % e == 0 for y, e in zip(image, d)), (M, forms)
        assert not any(image[len(d):]), (M, forms)


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(_smith_inputs())
@example([[1]])
@example([[0]])
@example([[6, 10], [10, 15]])       # no unit, remainders both ways
@example([[2, 0, 0], [0, 3, 0], [0, 0, 0]])    # [2, 3] exchanged to [1, 6]
@example([[1, 4, 6], [0, 6, 0]])    # a unit pivot with its row to clear
def test_smith_transform_takes_the_lattice_onto_the_diagonal(M):
    _assert_smith_transform(M)
    _assert_smith_transform(_columns(M))


def test_smith_diagonal_makes_no_hermite_form(monkeypatch):
    def no_hermite(*args):
        raise AssertionError("a Hermite form was taken")
    monkeypatch.setattr(zlin, "hnf_columns", no_hermite)
    monkeypatch.setattr(zlin, "_eliminate", no_hermite)
    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        M = [[rng.choice([0, 1, -1, rng.randint(-99, 99)])
              for _ in range(cols)] for _ in range(rows)]
        assert zlin.smith_diagonal(M) == smith_diagonal_reference(M)
        assert zlin.smith_diagonal(M, transform=True)[0] == \
            smith_diagonal_reference(M)


@st.composite
def _full_rank_bases(draw):
    """A Hermite basis of a lattice of finite index in Z^n, n <= 4: random
    vectors and d_i e_i with d_i <= 6, so the index is at most 6^n."""
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                  max_size=n), max_size=3))
    diag = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    vecs += [[d * (i == j) for j in range(n)] for i, d in enumerate(diag)]
    return zlin.hnf_columns(vecs)


@settings(max_examples=300, deadline=None)
@given(_full_rank_bases(), st.data())
def test_order_modulo_is_the_least_multiple_in_the_lattice(B, data):
    n = len(B)
    v = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n,
                           max_size=n))
    index = prod(B[i][i] for i in range(n))
    want = next(m for m in range(1, index + 1)
                if zlin.solve_lattice(B, [m * x for x in v]) is not None)
    assert order_modulo(B, v) == want
    assert index % want == 0


def test_order_modulo_needs_a_full_rank_echelon_basis():
    for B, v in (([[2, 0], [1, 3]], [1, 1]),      # a coordinate below a pivot
                 ([[0, 1], [1, 0]], [1, 1]),      # pivots off the diagonal
                 ([[2, 1], [0, 0]], [1, 1]),      # a zero pivot
                 ([[2, 1]], [1, 1]),              # rank below n
                 ([[2, 1], [0, 3], [0, 0]], [1, 1]),
                 ([[1, 0, 0], [0, 0, 1]], [1, 1, 1]),
                 ([[2, 1, 0], [0, 3]], [1, 1])):  # a vector of another length
        with pytest.raises(ValueError, match="full-rank echelon"):
            order_modulo(B, v)
    assert order_modulo([[2, 1], [0, 3]], [1, 0]) == 6
    assert order_modulo([[2, 1], [0, 3]], [2, 1]) == 1
    assert order_modulo([[-4]], [2]) == 2
    assert order_modulo([], []) == 1


@st.composite
def _maps_and_lattices(draw):
    """(dims, A, B): the images A of up to 5 unit vectors in Z^dims, half
    of them multiples of one vector (rank at most 1), and up to 5 vectors
    B spanning a lattice, half of the time as their Hermite basis."""
    dims = draw(st.integers(0, 4))
    entry = st.integers(-9, 9)

    def vectors(k):
        return [draw(st.lists(entry, min_size=dims, max_size=dims))
                for _ in range(k)]

    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        A = vectors(n)
    else:
        w = vectors(1)[0]
        A = [[c * x for x in w] for c in draw(st.lists(entry, min_size=n,
                                                         max_size=n))]
    B = vectors(draw(st.integers(0, 5)))
    if draw(st.booleans()):
        B = zlin.hnf_columns(B)
    return dims, A, B


@settings(max_examples=400, deadline=None)
@given(_maps_and_lattices())
@example((2, [], [[2, 1], [4, 2], [0, 3]]))                 # A empty
@example((2, [[1, 2], [3, 4]], []))                         # B empty
@example((3, [[1, 2, 3], [2, 4, 6], [0, 0, 0]],             # A of rank 1,
          [[0, 3, 0], [6, 0, 0], [0, 0, 9], [6, 6, 9]]))    # B not echelon
def test_kernel_modulo_a_lattice_matches_the_full_kernel(case):
    dims, A, B = case
    assert zlin.solution_lattice(A, B) == solution_lattice_reference(A, B)
    K = zlin.kernel_columns(A, B)
    H = zlin.hnf_columns(B)
    for x in K:
        image = [sum(c * a[i] for c, a in zip(x, A)) for i in range(dims)]
        assert zlin.solve_lattice(H, image) is not None
    if B == H:
        # independent modulo vectors: the vectors returned are a basis
        assert len(zlin.hnf_columns(K)) == len(K)
    if dims:
        # no modulo: the relations, as the column-layout kernel has them
        assert zlin.kernel_columns(A) == \
            _columns(kernel_columns_reference(_columns(A)))


def test_presentation_divisors():
    # the divisors > 1 of the Smith form, largest first; none for no
    # generators, and ValueError for an infinite quotient
    got = AbelianGroupStructure.from_relation_matrix([[4, 0], [0, 2]], 2)
    assert got.divisors == (4, 2)
    got = AbelianGroupStructure.from_relation_matrix([[1, 0], [0, 6]], 2)
    assert got.divisors == (6,)
    assert AbelianGroupStructure.from_relation_matrix([], 0).divisors == ()
    with pytest.raises(ValueError, match="infinite quotient"):
        AbelianGroupStructure.from_relation_matrix([[2, 0]], 2)


def _chain_from_cyclic_orders(orders):
    """Reference chain of a product of cyclic groups: factor every order
    and regroup the prime powers, largest first."""
    by_prime = {}
    for n in orders:
        for q, e in factor(n).factors:
            by_prime.setdefault(q, []).append(e)
    for es in by_prime.values():
        es.sort(reverse=True)
    length = max((len(v) for v in by_prime.values()), default=0)
    return tuple(prod(q ** es[i] for q, es in by_prime.items()
                      if i < len(es)) for i in range(length))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.data())
def test_from_relation_matrix_matches_reference(ngens, nrels, data):
    M = [[data.draw(st.integers(-12, 12)) for _ in range(ngens)]
         for _ in range(nrels)]
    divs = zlin.smith_diagonal(M)
    if len(divs) < ngens:
        # infinite quotient (rank < ngens): the structure must refuse it
        with pytest.raises(ValueError):
            AbelianGroupStructure.from_relation_matrix(M, ngens)
        return
    got = AbelianGroupStructure.from_relation_matrix(M, ngens)
    assert got.divisors == _chain_from_cyclic_orders(divs)
    assert got.order == prod(divs)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.data())
def test_lattice_index_matches_smith(ngens, nrels, data):
    # the Hermite diagonal and the elementary divisors give one index, and
    # both refuse an infinite quotient
    M = [[data.draw(st.integers(-12, 12)) for _ in range(ngens)]
         for _ in range(nrels)]
    try:
        order = AbelianGroupStructure.from_relation_matrix(M, ngens).order
    except ValueError:
        with pytest.raises(ValueError):
            lattice_index(M, ngens)
        return
    assert lattice_index(M, ngens) == order


def test_lattice_index_rank_deficient():
    for M in ([[2, 1], [4, 2]], [[0, 0], [0, 0]], [[3, 0]], []):
        with pytest.raises(ValueError):
            lattice_index(M, 2)
    assert lattice_index([[2, 1], [4, 3]], 2) == 2
    assert lattice_index([], 0) == 1


def test_mat_pow():
    A = [[0, -1], [1, -1]]  # order 3
    B = zlin.identity(2)
    for _ in range(3):
        B = zlin.mat_mul(B, A)
    assert B == zlin.identity(2)


_FORMS = reduced_forms_imaginary(-3299)     # Cl(-3299) = [9,3]


def _compose_reduced(f, g):
    return reduce_imaginary(compose(f, g))


@settings(max_examples=80, deadline=None)
@given(e=st.integers(1, 60), m=st.integers(2, 10 ** 9),
       r=st.integers(0, 10 ** 9),
       A=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       i=st.integers(0, len(_FORMS) - 1))
def test_power_is_repeated_product(e, m, r, A, i):
    # power(x, e, op) against e - 1 repeated ops, in Z/m, on 2x2 integer
    # matrices and on the reduced forms of one discriminant, with one op
    # per square and per further factor
    for x, op in ((r % m, lambda a, b: a * b % m),
                  ([A[:2], A[2:]], zlin.mat_mul),
                  (_FORMS[i], _compose_reduced)):
        y = x
        for _ in range(e - 1):
            y = op(y, x)
        calls = []
        assert power(x, e, lambda a, b: calls.append(1) or op(a, b)) == y
        assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1)


def test_power_needs_a_positive_exponent():
    assert power(5, 1, None) == 5
    for e in (0, -1):
        with pytest.raises(ValueError):
            power(5, e, lambda a, b: a * b)


def _solve_fraction(B, v):
    """Reference: Gaussian elimination over Q for any independent vectors
    B, the columns of its matrix."""
    cols = len(B)
    if cols == 0:
        return [] if not any(v) else None
    rows = len(v)
    A = [[Fraction(b[i]) for b in B] + [Fraction(v[i])] for i in range(rows)]
    r = 0
    pivots = []
    for j in range(cols):
        piv = next((i for i in range(r, rows) if A[i][j]), None)
        if piv is None:
            return None
        A[r], A[piv] = A[piv], A[r]
        for i in range(rows):
            if i != r and A[i][j]:
                f = A[i][j] / A[r][j]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append((r, j))
        r += 1
    if any(A[i][cols] for i in range(r, rows)):
        return None
    x = [A[i][cols] / A[i][j] for i, j in pivots]
    if any(f.denominator != 1 for f in x):
        return None
    return [int(f) for f in x]


@st.composite
def _small_vectors(draw):
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    return [draw(st.lists(entry, min_size=rows, max_size=rows))
            for _ in range(n)]


@given(_small_vectors(), st.data())
@settings(max_examples=300, deadline=None)
def test_solve_lattice_matches_fraction_reference(V, data):
    H = zlin.hnf_columns(V)
    rows = len(V[0])
    ncols = len(H)
    pivots = [next(i for i in range(rows) if h[i]) for h in H]
    coef = st.integers(-20, 20)
    a = data.draw(st.lists(coef, min_size=ncols, max_size=ncols))
    Ha = [sum(H[j][i] * a[j] for j in range(ncols)) for i in range(rows)]
    # solvable: the unique solution comes back
    assert zlin.solve_lattice(H, Ha) == _solve_fraction(H, Ha) == a
    # one more at the row of a pivot above 1 gives x_j a fractional part
    for j, r in enumerate(pivots):
        if H[j][r] > 1:
            v = list(Ha)
            v[r] += 1
            assert zlin.solve_lattice(H, v) is None
            assert _solve_fraction(H, v) is None
    # outside the span: a unit vector at a row that carries no pivot
    for i in set(range(rows)) - set(pivots):
        v = list(Ha)
        v[i] += 1
        assert zlin.solve_lattice(H, v) is None
        assert _solve_fraction(H, v) is None
    w = data.draw(st.lists(coef, min_size=rows, max_size=rows))
    assert zlin.solve_lattice(H, w) == _solve_fraction(H, w)


def test_solve_lattice_rejects_non_echelon_basis():
    for B in ([[0, 1], [1, 0]],      # pivot coordinates decrease
              [[1, 0], [1, 1]],      # two vectors share a pivot coordinate
              [[1, 0], [0, 0]]):     # zero vector
        with pytest.raises(ValueError):
            zlin.solve_lattice(B, [1, 1])
    assert zlin.solve_lattice([[2, 1], [0, 3]], [4, 5]) == [2, 1]
    assert zlin.solve_lattice([[2, 1], [0, 3]], [4, 4]) is None
    assert zlin.solve_lattice([], [0, 0]) == []
    assert zlin.solve_lattice([], [0, 1]) is None
