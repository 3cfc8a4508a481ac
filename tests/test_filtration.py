import dataclasses
import itertools
import random
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsclass import filtration as fl
from epsclass import zlin
from epsclass.arith import BudgetError, vp
from oracles import lattice_index


def brute_elements(relations):
    """All coset representatives of Z^g / L, via the triangular HNF basis."""
    H = zlin.hnf_columns(relations)
    g = len(H)

    def canon(v):
        v = list(v)
        for i in range(g):
            q = v[i] // H[i][i]
            if q:
                v = [x - q * y for x, y in zip(v, H[i])]
        return tuple(v)

    reps = [canon(v) for v in itertools.product(
        *[range(H[i][i]) for i in range(g)])]
    return H, canon, sorted(set(reps))


def brute_kernel_order(M, power):
    H, canon, reps = brute_elements(M.relations)
    g = M.ngens
    # the images of e_k under 1 - sigma, then under (1 - sigma)^power
    B = zlin.mat_sub(zlin.identity(g), M.sigma)
    A = zlin.identity(g)
    for _ in range(power):
        A = zlin.mat_mul(A, B)
    count = 0
    for v in reps:
        img = [sum(v[k] * A[k][i] for k in range(g)) for i in range(g)]
        if canon(img) == canon([0] * g):
            count += 1
    return count


# relation vectors 3e1, 3e2: (Z/3)^2
_Z3_SQUARED = [[3, 0], [0, 3]]
# sigma(e1) = e1, sigma(e2) = e2
_TRIVIAL = [[1, 0], [0, 1]]
# sigma(e1) = e2, sigma(e2) = -e1 - e2: of order 3
_ORDER_3 = [[0, 1], [-1, -1]]


def test_module_order():
    M = fl.FinitePModule.build(3, _Z3_SQUARED, _TRIVIAL)
    assert fl.module_order(M) == 9
    # relation vectors 4e1, 2e2, 2e3, 2e4, and sigma = 1
    M = fl.FinitePModule.build(2, [[4, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, 2, 0], [0, 0, 0, 2]],
                               zlin.identity(4))
    assert fl.module_order(M) == 32


def test_validation_rejects_bad_sigma():
    with pytest.raises(fl.FiltrationError):
        # sigma(e1) = e2, sigma(e2) = -e1, of order 4 on (Z/3)^2, is no
        # Z/3-action
        fl.FinitePModule.build(3, _Z3_SQUARED, [[0, 1], [-1, 0]])
    with pytest.raises(fl.FiltrationError):
        # relation vectors 6e1, 3e2: not a 3-group
        fl.FinitePModule.build(3, [[6, 0], [0, 3]], _TRIVIAL)


def test_sigma_holds_the_images_of_the_generators():
    # Z/9 e1 + Z/3 e2 with sigma(e1) = e1 + e2, sigma(e2) = e2 fixes 3e1
    # and e2; read as rows, sigma(e2) = e1 + e2 sends 3e2 = 0 to 3e1 != 0
    M = fl.FinitePModule.build(3, [[9, 0], [0, 3]], [[1, 1], [0, 1]])
    assert fl.fixed_subgroup(M).order == 9
    with pytest.raises(fl.FiltrationError):
        fl.FinitePModule.build(3, [[9, 0], [0, 3]], [[1, 0], [1, 1]])


def test_fixed_subgroup_examples():
    M = fl.FinitePModule.build(3, _Z3_SQUARED, _TRIVIAL)
    assert fl.fixed_subgroup(M).order == 9
    M = fl.FinitePModule.build(3, _Z3_SQUARED, _ORDER_3)
    assert fl.fixed_subgroup(M).order == 3
    M, N = fl.from_quadratic(-15015)
    assert N == 5
    assert fl.fixed_subgroup(M).order == 16  # 2^(N-1)


def test_filtration_examples():
    M = fl.FinitePModule.build(3, _Z3_SQUARED, _ORDER_3)
    r = fl.filtration(M, 2)
    assert r.chain == (1, 3, 9) and r.t == (0, 0, 1) and r.m == 2
    M = fl.FinitePModule.build(3, _Z3_SQUARED, _TRIVIAL)
    r = fl.filtration(M, 3)
    assert r.chain == (1, 9) and r.t == (0, 2) and r.m == 1
    M = fl.group_ring_block(3, 1, 2)
    r = fl.filtration(M, 2)
    assert r.chain == (1, 3, 9) and r.m == 2


def test_filtration_inconsistent_N():
    M = fl.FinitePModule.build(3, _Z3_SQUARED, _TRIVIAL)
    with pytest.raises(fl.FiltrationError):
        fl.filtration(M, 2)  # #M_1 = 9 != 3^(2-1)


def test_dual_routes_and_brute_force():
    rng = random.Random(3)
    for i in range(40):
        p = rng.choice((2, 3))
        N = rng.randint(2, 3)
        try:
            M = fl.synthesize(p, N, seed=i)
        except BudgetError:
            continue
        if fl.module_order(M) > 3 ** 6:
            continue
        r1 = fl.filtration(M, N)
        r2 = fl.filtration_iterated(M, N)
        assert r1 == r2
        assert fl.order_identity_check(r1)
        for k in range(1, r1.m + 1):
            assert brute_kernel_order(M, k) == r1.chain[k], (p, N, i, k)


def test_rank_from_t():
    assert fl.rank_from_t(2, 6, ()) == (5, 0)
    assert fl.rank_from_t(3, 4, (0, 0)) == (6, 3)
    assert fl.rank_from_t(3, 2, (0, 0)) == (2, 1)


def test_pr_ranks():
    assert fl.pr_ranks(3, 4, (0, 0, 1, 3)) == [6, 2]
    assert fl.pr_ranks(2, 3, (0, 1, 2)) == [2, 1]
    assert fl.pr_ranks(3, 2, (0, 1, 1)) == [1]


def test_from_quadratic_matches_genus():
    from epsclass import quadclass as qc
    for m in (-15, 105, -1155, -15015, -255255):
        d = qc.fundamental_discriminant(m)
        M, N = fl.from_quadratic(d)
        r = fl.filtration(M, N)
        assert fl.order_identity_check(r)
        rank, _ = fl.rank_from_t(2, N, r.t)
        assert rank == N - 1
        _, delta = qc.genus_delta(d)
        # sigma-inversion: Delta = v_2(#M) - (N-1)
        v = 0
        n = r.order
        while n % 2 == 0:
            n //= 2
            v += 1
        assert v - (N - 1) == delta


def test_synthesize_refuses_p_above_17_before_any_block(monkeypatch):
    # at p = 19 one block's fixed subgroup took 7 s, and filtration-run
    # --p 19 --n 3 did not finish in 100 s
    def no_block(*args):
        raise AssertionError(f"block {args} was built")
    monkeypatch.setattr(fl, "group_ring_block", no_block)
    for p in (19, 31):
        with pytest.raises(ValueError):
            fl.synthesize(p, 3, 0)


def test_synthesize_gives_up_as_a_budget_overrun():
    # no draw of MAX_ATTEMPTS has #M^G = 2^11: BudgetError (the CLI's exit
    # 3), not the FiltrationError of a bad module (a ValueError, exit 2)
    with pytest.raises(BudgetError, match="in 500 attempts") as info:
        fl.synthesize(2, 12, 0)
    assert not isinstance(info.value, ValueError)


def test_synthesize_deterministic():
    a = fl.synthesize(3, 3, seed=7)
    b = fl.synthesize(3, 3, seed=7)
    assert a == b
    assert fl.fixed_subgroup(a).order == 9


def test_mc_histogram_shape():
    rep = fl.mc_delta_histogram(3, 2, 20, seed=1)
    assert rep["samples"] == 20
    assert sum(rep["histogram"].values()) == 20


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (3, 4), (5, 3)])
def test_synthesized_modules_pass_validation(p, N):
    # direct_sum builds without re-validating; the checked entry point
    # accepts each sum and returns the same module
    for seed in range(8):
        M = fl.synthesize(p, N, seed)
        assert fl.FinitePModule.build(M.p, M.relations, M.sigma) == M


def _reference_draw(p, N, seed, attempts=500):
    # the loop before blocks were checked one by one: it sums every draw
    # and takes the fixed subgroup of the whole sum
    rng = random.Random(seed * 1000003 + p * 1009 + N)
    for _ in range(attempts):
        draw = [(rng.randint(1, fl.MAX_BLOCK_EXPONENT), rng.randint(1, p))
                for _ in range(N - 1)]
        M = fl.direct_sum([fl.group_ring_block(p, a, b) for a, b in draw])
        if fl.fixed_subgroup(M).order == p ** (N - 1):
            return draw
    raise fl.FiltrationError("no module found")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_synthesize_matches_reference(p):
    for N in (2, 3, 4, 5):
        for seed in range(50):
            draw = _reference_draw(p, N, seed)
            assert fl.synthesize(p, N, seed) == fl.direct_sum(
                [fl.group_ring_block(p, a, b) for a, b in draw]), \
                (p, N, seed)


def _raw_block(p, a, b):
    """The relations p^a x^j and x^j (x-1)^b of Z[x]/(x^p - 1), and the
    images sigma(x^j) = x^(j+1), as unreduced lists."""
    sigma = [[int(i == (j + 1) % p) for i in range(p)] for j in range(p)]
    c = [0] * p
    for k in range(b + 1):
        c[k % p] += comb(b, k) * (-1) ** (b - k)
    rels = [[p ** a * (i == j) for i in range(p)] for j in range(p)]
    rels += [[c[(i - j) % p] for i in range(p)] for j in range(p)]
    return rels, sigma


def _raw_sum(p, draw):
    """The raw relations and images of the blocks (a, b) in draw, placed
    block by block in Z^(p * len(draw))."""
    g = p * len(draw)
    rels, sigma = [], []
    for k, (a, b) in enumerate(draw):
        r, s = _raw_block(p, a, b)
        pad = [0] * (p * k), [0] * (g - p * (k + 1))
        rels += [pad[0] + v + pad[1] for v in r]
        sigma += [pad[0] + v + pad[1] for v in s]
    return rels, sigma


@st.composite
def _blocks(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    ab = st.tuples(st.integers(1, fl.MAX_BLOCK_EXPONENT), st.integers(1, p))
    return p, draw(st.lists(ab, min_size=1, max_size=4))


@given(_blocks())
@settings(max_examples=60, deadline=None)
def test_fixed_subgroup_of_sum_is_product_of_blocks(pblocks):
    # sigma acts block by block, so (+B_j)^G = +B_j^G
    p, ab = pblocks
    blocks = [fl.group_ring_block(p, a, b) for a, b in ab]
    assert fl.fixed_subgroup(fl.direct_sum(blocks)).order == \
        prod(fl.fixed_subgroup(B).order for B in blocks)


def test_blocks_are_shared_and_frozen():
    B = fl.group_ring_block(3, 2, 3)
    assert fl.group_ring_block(3, 2, 3) is B
    assert B == fl.group_ring_block.__wrapped__(3, 2, 3)
    assert isinstance(B.relations, tuple) and isinstance(B.sigma, tuple)
    assert all(isinstance(r, tuple) for r in B.relations + B.sigma)
    with pytest.raises(dataclasses.FrozenInstanceError):
        B.p = 5


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (3, 4), (5, 3)])
def test_module_lattice_is_the_hermite_basis_of_the_relations(p, N):
    for seed in range(8):
        M = fl.synthesize(p, N, seed)
        rels, _ = _raw_sum(p, _reference_draw(p, N, seed))
        assert [list(v) for v in M.relations] == zlin.hnf_columns(rels)
        assert fl.module_order(M) == lattice_index(rels, M.ngens)
    # relations of rank 1 in Z^2: an infinite quotient, no finite module
    with pytest.raises(fl.FiltrationError):
        fl.FinitePModule.build(3, [[3, 0], [6, 0]], _TRIVIAL)


@pytest.mark.parametrize("p,a,b", [(3, 2, 3), (3, 1, 2), (5, 2, 4)])
def test_shared_block_lattice_is_left_as_built(p, a, b):
    # group_ring_block's modules are shared through lru_cache: no route may
    # change the relations of one, alone or summed with others
    B = fl.group_ring_block(p, a, b)
    R = B.relations
    assert isinstance(R, tuple) and all(isinstance(v, tuple) for v in R)
    for M in (B, fl.direct_sum([B, fl.group_ring_block(p, 1, 1), B])):
        N = vp(fl.fixed_subgroup(M).order, p) + 1
        assert fl.filtration(M, N) == fl.filtration_iterated(M, N)
    assert B.relations is R
    assert R == fl.group_ring_block.__wrapped__(p, a, b).relations
    assert [list(v) for v in R] == zlin.hnf_columns(_raw_block(p, a, b)[0])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_block_is_the_hermite_basis_of_its_relations(p):
    for a in range(1, fl.MAX_BLOCK_EXPONENT + 1):
        for b in range(1, p + 1):
            rels, sigma = _raw_block(p, a, b)
            B = fl.group_ring_block(p, a, b)
            assert [list(v) for v in B.relations] == zlin.hnf_columns(rels)
            assert [list(v) for v in B.sigma] == sigma


def test_quadratic_module_is_the_hermite_basis_of_its_relations():
    from epsclass import quadclass as qc
    for D in (-4, -84, -1155, -15015, 4620, 5 * 7 * 11 * 13 * 17):
        M, _ = fl.from_quadratic(D)
        d = qc.as_disc(D)
        g = (qc.class_group_imaginary(d) if d.value < 0
             else qc.narrow_class_group_real(d))
        divs = g.p_part(2).divisors
        rels = [[e * (i == j) for i in range(len(divs))]
                for j, e in enumerate(divs)]
        assert [list(v) for v in M.relations] == zlin.hnf_columns(rels), D


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (3, 4), (5, 3), (7, 3)])
def test_direct_sum_is_the_build_over_raw_block_relations(p, N,
                                                           monkeypatch):
    for seed in range(6):
        draw = _reference_draw(p, N, seed)
        built = fl.FinitePModule.build(p, *_raw_sum(p, draw))
        blocks = [fl.group_ring_block(p, a, b) for a, b in draw]
        # the blocks' bases in turn are already the sum's Hermite basis
        with monkeypatch.context() as mp:
            mp.setattr(zlin, "_bezout", None)
            summed = fl.direct_sum(blocks)
        assert summed.relations == built.relations
        assert summed == built
        for route in (fl.filtration, fl.filtration_iterated):
            assert route(summed, N) == route(built, N), (seed, route)


@st.composite
def _block_lists(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ab = st.tuples(st.integers(1, fl.MAX_BLOCK_EXPONENT), st.integers(1, p))
    blocks = draw(st.lists(ab, min_size=1, max_size=3))
    # a block twice: its remembered chains are read twice
    return p, blocks + draw(st.lists(st.sampled_from(blocks), max_size=1))


@given(_block_lists())
@settings(max_examples=40, deadline=None)
def test_sum_chains_are_the_whole_module_chains(pblocks):
    # a sum multiplies its summands' chains; the build over the raw
    # relations has no summands and eliminates the whole module
    p, ab = pblocks
    summed = fl.direct_sum([fl.group_ring_block(p, a, b) for a, b in ab])
    built = fl.FinitePModule.build(p, *_raw_sum(p, ab))
    assert built.summands == () and len(summed.summands) == len(ab)
    assert summed == built and hash(summed) == hash(built)
    assert repr(summed) == repr(built)
    assert summed.fixed_order == built.fixed_order == \
        fl.fixed_subgroup(built).order
    N = vp(built.fixed_order, p) + 1
    for M in (summed, built):
        assert fl.filtration(M, N) == fl.filtration_iterated(M, N)
    assert fl.filtration(summed, N) == fl.filtration(built, N)


def test_sum_of_filtered_blocks_eliminates_nothing(monkeypatch):
    blocks = [fl.group_ring_block(3, a, b) for a, b in
              [(2, 3), (1, 2), (2, 3), (1, 1)]]
    for B in blocks:
        B.direct_orders, B.iterated_orders, B.fixed_order
    calls = [0]
    real = zlin.solution_lattice

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(zlin, "solution_lattice", counted)
    M = fl.direct_sum(blocks)
    N = vp(M.fixed_order, 3) + 1
    summed = fl.filtration(M, N), fl.filtration_iterated(M, N)
    assert calls[0] == 0
    # the same module without summands eliminates itself, once per step
    built = fl.FinitePModule.build(3, M.relations, M.sigma)
    assert (fl.filtration(built, N), fl.filtration_iterated(built, N)) \
        == summed
    assert calls[0] == 2 * summed[0].m


def test_filtration_gives_up_through_a_sum(monkeypatch):
    # a block's chains are remembered once made, so the blocks here are
    # unshared ones, each filtered afresh under the lowered bound
    fresh = fl.group_ring_block.__wrapped__
    assert len(fl.group_ring_block(3, 2, 3).direct_orders) > 2
    monkeypatch.setattr(fl, "MAX_STEPS", 1)
    M = fl.direct_sum([fresh(3, 1, 1), fresh(3, 2, 3)])
    for route in (fl.filtration, fl.filtration_iterated):
        with pytest.raises(fl.FiltrationError, match="did not stabilize"):
            route(M, 3)
