"""The (1-sigma)-filtration of a finite Z_p[G]-module, G = <sigma> of
order p.

M is presented as Z^g / L (L the lattice of the relation vectors) with
sigma given by the images sigma(e_j) of the generators.  The filtration is
M_i = ker (1-sigma)^i, computed two independent ways (direct matrix powers
vs iterated fixed-point pullbacks); quotient orders #(M_{i+1}/M_i) =
p^(N-1-t_i) give the t-sequence, from which p-ranks and the exceptional
exponent delta follow.  A direct sum is filtered summand by summand, as
sigma acts on each alone: each route multiplies its own chains of the
summands, and these are remembered on the shared group-ring blocks, so
each block is eliminated once per process and route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb, prod

from . import quadclass, zlin
from .abgroup import AbelianGroupStructure, power
from .arith import BudgetError, vp


MAX_STEPS = 500          # filtration length before a route gives up
MAX_BLOCK_EXPONENT = 2   # synthesize draws blocks mod p^a, 1 <= a <= this
MAX_ATTEMPTS = 500       # draws before synthesize gives up
# synthesize's largest p: the slowest block's fixed subgroup takes 0.5 s at
# p = 17 and 7 s at p = 19 (2-core Xeon), on thousand-bit intermediates
MAX_SYNTH_P = 17
# mc_delta_histogram's most samples: once the blocks are cached one costs
# 0.04-0.15 ms at N <= 5 for p <= 5 and N = 3 for p = 17, and 0.5 ms at
# p = 17, N = 5, on one core of a 2-core machine: 1-9 min at the budget
MC_SAMPLES = 10 ** 6


class FiltrationError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePModule:
    """Z^g modulo the lattice of the relation vectors, with sigma given by
    the images sigma(e_j) of the g generators: vectors of length g, which
    zlin takes as they are.  A list of images is the transpose of a
    matrix, but only powers of the one map sigma are multiplied, and they
    commute.  `relations` is the Hermite basis of the lattice, made once
    when the module is, as tuples: `group_ring_block` modules are shared.

    A `direct_sum` keeps its `summands`, which take no part in ==, hash or
    repr.  #M^G and the two chains of orders #M_i are cached properties:
    a module with summands multiplies theirs, one without eliminates
    itself.  So a shared block's are computed once per process."""
    p: int
    relations: tuple      # Hermite basis vectors, each of length g
    sigma: tuple          # sigma(e_j) for j < g, each of length g
    summands: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        hnf = zlin.hnf_columns(self.relations)
        object.__setattr__(self, "relations", tuple(map(tuple, hnf)))
        object.__setattr__(self, "sigma", tuple(map(tuple, self.sigma)))

    @classmethod
    def build(cls, p, relations, sigma) -> "FinitePModule":
        """The module, checked to be a finite p-group with a Z/p-action."""
        M = cls(p, relations, sigma)
        L = M.relations
        # sigma preserves the relation lattice: sigma(r) = sum_k r_k sigma(e_k)
        for img in zlin.mat_mul(L, M.sigma):
            if zlin.solve_lattice(L, img) is None:
                raise FiltrationError("sigma does not preserve relations")
        # sigma^p acts as identity on M
        sp = zlin.mat_sub(power(M.sigma, p, zlin.mat_mul),
                          zlin.identity(M.ngens))
        for v in sp:
            if any(v) and zlin.solve_lattice(L, v) is None:
                raise FiltrationError("sigma^p is not the identity on M")
        n = module_order(M)
        if n != p ** vp(n, p):
            raise FiltrationError("presented group is not a p-group")
        return M

    @property
    def ngens(self) -> int:
        return len(self.sigma)

    @cached_property
    def fixed_order(self) -> int:
        """#M^G, that of fixed_subgroup."""
        if self.summands:
            return prod(S.fixed_order for S in self.summands)
        return fixed_subgroup(self).order

    @cached_property
    def direct_orders(self) -> tuple:
        """(#M_0 = 1, #M_1, ..., #M), M_i = ker (1-sigma)^i from the
        matrix powers (1-sigma)^i: the direct route."""
        if self.summands:
            return _sum_chain([S.direct_orders for S in self.summands])
        total = module_order(self)
        A = _one_minus_sigma(self)
        orders = [1]
        Ai = zlin.identity(self.ngens)
        while orders[-1] != total:
            if len(orders) > MAX_STEPS:
                raise FiltrationError("filtration did not stabilize")
            Ai = zlin.mat_mul(A, Ai)
            K = zlin.solution_lattice(Ai, self.relations)
            orders.append(total // _index(K, self.ngens))
        return tuple(orders)

    @cached_property
    def iterated_orders(self) -> tuple:
        """The chain of direct_orders, M_{i+1} the pullback of (M/M_i)^G:
        the iterated route."""
        if self.summands:
            return _sum_chain([S.iterated_orders for S in self.summands])
        total = module_order(self)
        A = _one_minus_sigma(self)
        K = self.relations
        orders = [1]
        while orders[-1] != total:
            if len(orders) > MAX_STEPS:
                raise FiltrationError("filtration did not stabilize")
            K = zlin.solution_lattice(A, K)
            orders.append(total // _index(K, self.ngens))
        return tuple(orders)


def _sum_chain(chains: list[tuple]) -> tuple:
    """The chain of a direct sum from its summands' chains: #M_i =
    prod_j #(B_j)_min(i, m_j), a summand's order held once its chain has
    stopped, and the sum's stops with its longest."""
    m = max(map(len, chains))
    return tuple(prod(c[min(i, len(c) - 1)] for c in chains)
                 for i in range(m))


def _index(L, g: int) -> int:
    """#Z^g/L for a Hermite basis L: the product of its pivots, on the
    diagonal of a full-rank basis.  A lattice K between the relations and
    Z^g has full rank, and #K/(relations) = #M / _index(K)."""
    if len(L) < g:
        raise FiltrationError("infinite quotient: relation rank < ngens")
    return prod(L[i][i] for i in range(g))


def module_order(M: FinitePModule) -> int:
    """#M, the index of the relation lattice in Z^g."""
    return _index(M.relations, M.ngens)


def _one_minus_sigma(M: FinitePModule) -> list[list[int]]:
    """The images (1 - sigma)(e_j)."""
    return zlin.mat_sub(zlin.identity(M.ngens), M.sigma)


def fixed_subgroup(M: FinitePModule) -> AbelianGroupStructure:
    """M^G = ker(sigma - 1), as an abstract group."""
    g = M.ngens
    if g == 0:
        return AbelianGroupStructure.trivial()
    K = zlin.solution_lattice(_one_minus_sigma(M), M.relations)
    # relations of K/L: each basis vector of L in the K basis
    rels = [zlin.solve_lattice(K, r) for r in M.relations]
    assert None not in rels
    return AbelianGroupStructure.from_relation_matrix(rels, g)


@dataclass(frozen=True)
class FiltrationResult:
    p: int
    N: int
    chain: tuple     # [#M_0=1, #M_1, ..., #M_m]
    t: tuple         # t_0=0 <= t_1 <= ... <= t_m = N-1

    @property
    def m(self) -> int:
        return len(self.chain) - 1

    @property
    def order(self) -> int:
        return self.chain[-1]


def _chain_to_result(p: int, N: int, orders: tuple) -> FiltrationResult:
    t = []
    for i in range(len(orders) - 1):
        q = orders[i + 1] // orders[i]
        if orders[i + 1] % orders[i]:
            raise FiltrationError("non-nested filtration")
        v = vp(q, p)
        if q != p ** v:
            raise FiltrationError("quotient order is not a p-power")
        if v > N - 1:
            raise FiltrationError(
                f"quotient order p^{v} exceeds p^(N-1) = p^{N - 1}")
        t.append(N - 1 - v)
    if t and t[0] != 0:
        raise FiltrationError(
            f"#M_1 = p^{N - 1 - t[0]} contradicts declared N = {N}")
    for a, b in zip(t, t[1:]):
        if b < a:
            raise FiltrationError("quotient orders must weakly decrease")
    t.append(N - 1)  # termination: M_{m+1} = M_m
    return FiltrationResult(p, N, tuple(orders), tuple(t))


def filtration(M: FinitePModule, N: int) -> FiltrationResult:
    """Direct route: M_i = ker (1-sigma)^i via matrix powers."""
    return _chain_to_result(M.p, N, M.direct_orders)


def filtration_iterated(M: FinitePModule, N: int) -> FiltrationResult:
    """Iterated route: M_{i+1} is the pullback of (M/M_i)^G."""
    return _chain_to_result(M.p, N, M.iterated_orders)


def _t_at(t, i: int, N: int) -> int:
    return t[i] if i < len(t) else N - 1


def rank_from_t(p: int, N: int, t) -> tuple[int, int]:
    """(p-rank, delta) from the t-sequence (Gras's lemma)."""
    s = sum(_t_at(t, i, N) for i in range(1, p - 1))
    return (p - 1) * (N - 1) - s, (p - 2) * (N - 1) - s


def pr_ranks(p: int, N: int, t) -> list[int]:
    """p^r-ranks for r = 1, 2, ... until they vanish."""
    out = []
    r = 1
    while True:
        v = sum(N - 1 - _t_at(t, i, N)
                for i in range((r - 1) * (p - 1), r * (p - 1)))
        if v == 0:
            break
        out.append(v)
        r += 1
    return out


def order_identity_check(result: FiltrationResult) -> bool:
    e = sum(result.N - 1 - result.t[i] for i in range(result.m))
    return result.order == result.p ** e


# ------------------------------------------------------------ constructors

def from_quadratic(D) -> tuple[FinitePModule, int]:
    """(2-part of the restricted class group with sigma = inversion, N)."""
    d = quadclass.as_disc(D)
    g = (quadclass.class_group_imaginary(d) if d.value < 0
         else quadclass.narrow_class_group_real(d))
    two = g.p_part(2)
    k = len(two.divisors)
    rel = [[two.divisors[i] if i == j else 0 for j in range(k)]
           for i in range(k)]
    sigma = [[-1 if i == j else 0 for j in range(k)] for i in range(k)]
    return FinitePModule.build(2, rel, sigma), d.ramified_count


@lru_cache(maxsize=64)   # every block of one p <= MAX_SYNTH_P
def group_ring_block(p: int, a: int, b: int) -> FinitePModule:
    """Z[x]/(x^p - 1, p^a, (x-1)^b) with sigma = multiplication by x.

    Built and validated once per (p, a, b); the module is frozen, so every
    caller shares it.
    """
    # sigma(x^j) = x^(j+1)
    sigma = [[1 if (i - j) % p == 1 else 0 for i in range(p)]
             for j in range(p)]
    # coefficients of (x-1)^b mod x^p - 1
    c = [0] * p
    for k in range(b + 1):
        c[k % p] += comb(b, k) * (-1) ** (b - k)
    rels = [[p ** a if i == j else 0 for i in range(p)] for j in range(p)]
    rels += [[c[(i - j) % p] for i in range(p)] for j in range(p)]
    return FinitePModule.build(p, rels, sigma)


def direct_sum(mods: list[FinitePModule]) -> FinitePModule:
    """The modules side by side, sigma acting on each alone; the sum keeps
    them as its summands, whose #M^G and chains it multiplies."""
    p = mods[0].p
    g = sum(m.ngens for m in mods)
    rels, sigma = [], []
    off = 0
    for m in mods:
        left, right = (0,) * off, (0,) * (g - off - m.ngens)
        rels += [left + r + right for r in m.relations]
        sigma += [left + s + right for s in m.sigma]
        off += m.ngens
    # the blocks' Hermite bases in turn are the sum's, reduced with no
    # Bezout step; a sum of valid blocks is valid: no need to go through build
    return FinitePModule(p, tuple(rels), tuple(sigma), tuple(mods))


def synthesize(p: int, N: int, seed: int) -> FinitePModule:
    """Random direct sum of N-1 group-ring quotients with #M^G = p^(N-1).

    Each of MAX_ATTEMPTS attempts draws N-1 blocks (a, b).  sigma acts
    block by block, so (+B_j)^G = +B_j^G and a draw is accepted when the
    blocks' cached orders #B_j^G multiply to p^(N-1); only the accepted
    draw is summed.  p above MAX_SYNTH_P is refused before any block is
    built, and MAX_ATTEMPTS draws that all miss end in BudgetError.
    """
    if N < 2 or p > MAX_SYNTH_P:
        raise ValueError(f"synthesize needs N >= 2 and p <= {MAX_SYNTH_P}, "
                         f"got N={N}, p={p}")
    rng = random.Random(seed * 1000003 + p * 1009 + N)
    for _ in range(MAX_ATTEMPTS):
        draw = [(rng.randint(1, MAX_BLOCK_EXPONENT), rng.randint(1, p))
                for _ in range(N - 1)]
        blocks = [group_ring_block(p, a, b) for a, b in draw]
        if prod(B.fixed_order for B in blocks) == p ** (N - 1):
            return direct_sum(blocks)
    raise BudgetError(f"synthesize: no module with #M^G = {p}^{N - 1} "
                      f"found in {MAX_ATTEMPTS} attempts")


def mc_delta_histogram(p: int, N: int, samples: int, seed: int = 0) -> dict:
    """Monte-Carlo distribution of Delta(N) = v_p(#M) - (N-1); BudgetError
    before any module for samples above MC_SAMPLES."""
    if samples > MC_SAMPLES:
        raise BudgetError(f"{samples} samples exceed the budget {MC_SAMPLES}")
    hist: dict[int, int] = {}
    for i in range(samples):
        M = synthesize(p, N, seed + i)
        d = vp(module_order(M), p) - (N - 1)
        hist[d] = hist.get(d, 0) + 1
    return {"p": p, "N": N, "samples": samples,
            "histogram": {str(k): hist[k] for k in sorted(hist)}}
