"""The (1-sigma)-filtration of a finite Z_p[G]-module, G = <sigma> of
order p.

M is presented as Z^g / L (L the column lattice of `relations`) with a
sigma matrix acting on generators.  The filtration is M_i = ker (1-sigma)^i,
computed two independent ways (direct matrix powers vs iterated fixed-point
pullbacks); quotient orders #(M_{i+1}/M_i) = p^(N-1-t_i) give the
t-sequence, from which p-ranks and the exceptional exponent delta follow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from . import zlin
from .abgroup import AbelianGroupStructure
from .arith import vp


class FiltrationError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePModule:
    p: int
    relations: tuple      # rows (length g), columns = relations
    sigma: tuple          # g x g action on generators

    @classmethod
    def build(cls, p, relations, sigma) -> "FinitePModule":
        m = cls(p, tuple(tuple(r) for r in relations),
                tuple(tuple(r) for r in sigma))
        m._validate()
        return m

    @property
    def ngens(self) -> int:
        return len(self.sigma)

    def rel_rows(self) -> list[list[int]]:
        return [list(r) for r in self.relations]

    def sigma_rows(self) -> list[list[int]]:
        return [list(r) for r in self.sigma]

    def _validate(self):
        g = self.ngens
        if g == 0:
            return
        L = zlin.hnf_columns(self.rel_rows())
        # sigma preserves the relation lattice
        for j in range(len(self.relations[0])):
            col = [self.relations[i][j] for i in range(g)]
            img = [sum(self.sigma[i][k] * col[k] for k in range(g))
                   for i in range(g)]
            if zlin.solve_lattice(L, img) is None:
                raise FiltrationError("sigma does not preserve relations")
        # sigma^p acts as identity on M
        sp = zlin.mat_sub(zlin.mat_pow(self.sigma_rows(), self.p),
                          zlin.identity(g))
        for j in range(g):
            col = [sp[i][j] for i in range(g)]
            if any(col) and zlin.solve_lattice(L, col) is None:
                raise FiltrationError("sigma^p is not the identity on M")
        n = module_order(self)
        if n != self.p ** vp(n, self.p):
            raise FiltrationError("presented group is not a p-group")


def module_order(M: FinitePModule) -> int:
    if M.ngens == 0:
        return 1
    return zlin.lattice_index(M.rel_rows(), M.ngens)


def _one_minus_sigma(M: FinitePModule) -> list[list[int]]:
    return zlin.mat_sub(zlin.identity(M.ngens), M.sigma_rows())


def _sublattice_order(M: FinitePModule, K: list[list[int]],
                      total: int) -> int:
    """Order of K/L inside M = Z^g/L, where L <= K <= Z^g."""
    return total // zlin.lattice_index(K, M.ngens)


def fixed_subgroup(M: FinitePModule) -> AbelianGroupStructure:
    """M^G = ker(sigma - 1), as an abstract group."""
    g = M.ngens
    if g == 0:
        return AbelianGroupStructure.trivial()
    K = zlin.solution_lattice(_one_minus_sigma(M), M.rel_rows())
    # relations of K/L: express each relation column in the K basis
    cols = []
    for j in range(len(M.relations[0])):
        col = [M.relations[i][j] for i in range(g)]
        x = zlin.solve_lattice(K, col)
        assert x is not None
        cols.append(x)
    rows = [[c[i] for c in cols] for i in range(g)]
    return AbelianGroupStructure.from_relation_matrix(rows, g)


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


def _chain_to_result(p: int, N: int, orders: list[int]) -> FiltrationResult:
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


def filtration(M: FinitePModule, N: int, max_steps: int = 500) -> FiltrationResult:
    """Direct route: M_i = ker (1-sigma)^i via matrix powers."""
    total = module_order(M)
    A = _one_minus_sigma(M)
    orders = [1]
    Ai = zlin.identity(M.ngens)
    while orders[-1] != total:
        if len(orders) > max_steps:
            raise FiltrationError("filtration did not stabilize")
        Ai = zlin.mat_mul(A, Ai)
        K = zlin.solution_lattice(Ai, M.rel_rows())
        orders.append(_sublattice_order(M, K, total))
    return _chain_to_result(M.p, N, orders)


def filtration_iterated(M: FinitePModule, N: int,
                        max_steps: int = 500) -> FiltrationResult:
    """Iterated route: M_{i+1} is the pullback of (M/M_i)^G."""
    total = module_order(M)
    A = _one_minus_sigma(M)
    K = zlin.hnf_columns(M.rel_rows())
    orders = [1]
    while orders[-1] != total:
        if len(orders) > max_steps:
            raise FiltrationError("filtration did not stabilize")
        K = zlin.solution_lattice(A, K)
        orders.append(_sublattice_order(M, K, total))
    return _chain_to_result(M.p, N, orders)


def _t_at(t, i: int, N: int) -> int:
    return t[i] if i < len(t) else N - 1


def rank_from_t(p: int, N: int, t) -> tuple[int, int]:
    """(p-rank, delta) from the t-sequence (Gras's lemma)."""
    s = sum(_t_at(t, i, N) for i in range(1, p - 1))
    return (p - 1) * (N - 1) - s, (p - 2) * (N - 1) - s


def pr_ranks(p: int, N: int, t, rmax: int = 0) -> list[int]:
    """p^r-ranks for r = 1, 2, ... until they vanish."""
    out = []
    r = 1
    while True:
        v = sum(N - 1 - _t_at(t, i, N)
                for i in range((r - 1) * (p - 1), r * (p - 1)))
        if v == 0 and (not rmax or r > rmax):
            break
        out.append(v)
        if rmax and r >= rmax:
            break
        r += 1
    return out


def order_identity_check(result: FiltrationResult) -> bool:
    e = sum(result.N - 1 - result.t[i] for i in range(result.m))
    return result.order == result.p ** e


# ------------------------------------------------------------ constructors

def from_quadratic(D) -> tuple[FinitePModule, int]:
    """(2-part of the restricted class group with sigma = inversion, N)."""
    from . import quadclass
    d = quadclass.as_disc(D)
    g = (quadclass.class_group_imaginary(d) if d.value < 0
         else quadclass.narrow_class_group_real(d))
    two = g.p_part(2)
    k = len(two.divisors)
    rel = [[two.divisors[i] if i == j else 0 for j in range(k)]
           for i in range(k)]
    sigma = [[-1 if i == j else 0 for j in range(k)] for i in range(k)]
    return FinitePModule.build(2, rel, sigma), d.ramified_count


def group_ring_block(p: int, a: int, b: int) -> FinitePModule:
    """Z[x]/(x^p - 1, p^a, (x-1)^b) with sigma = multiplication by x."""
    g = p
    sigma = [[1 if (i - j) % p == 1 else 0 for j in range(p)]
             for i in range(p)]
    # coefficients of (x-1)^b mod x^p - 1
    c = [0] * p
    for k in range(b + 1):
        c[k % p] += comb(b, k) * (-1) ** (b - k)
    cols = []
    for i in range(g):
        cols.append([p ** a if i == j else 0 for j in range(g)])
    for j in range(g):
        cols.append([c[(i - j) % p] for i in range(g)])
    rows = [[col[i] for col in cols] for i in range(g)]
    return FinitePModule.build(p, rows, sigma)


def direct_sum(mods: list[FinitePModule]) -> FinitePModule:
    p = mods[0].p
    g = sum(m.ngens for m in mods)
    rel_cols = []
    sigma = [[0] * g for _ in range(g)]
    off = 0
    for m in mods:
        k = m.ngens
        for i in range(k):
            for j in range(k):
                sigma[off + i][off + j] = m.sigma[i][j]
        for j in range(len(m.relations[0])):
            col = [0] * g
            for i in range(k):
                col[off + i] = m.relations[i][j]
            rel_cols.append(col)
        off += k
    rows = [[c[i] for c in rel_cols] for i in range(g)]
    return FinitePModule.build(p, rows, sigma)


def synthesize(p: int, N: int, seed: int, max_a: int = 2,
               attempts: int = 500) -> FinitePModule:
    """Random direct sum of N-1 group-ring quotients with #M^G = p^(N-1)."""
    if N < 2:
        raise ValueError("synthesize needs N >= 2")
    rng = random.Random(seed * 1000003 + p * 1009 + N)
    for _ in range(attempts):
        mods = [group_ring_block(p, rng.randint(1, max_a),
                                 rng.randint(1, p))
                for _ in range(N - 1)]
        M = direct_sum(mods)
        if fixed_subgroup(M).order == p ** (N - 1):
            return M
    raise FiltrationError(f"synthesize: no module with #M^G = {p}^{N - 1} "
                          f"found in {attempts} attempts")


def mc_delta_histogram(p: int, N: int, samples: int, seed: int = 0,
                       **kw) -> dict:
    """Monte-Carlo distribution of Delta(N) = v_p(#M) - (N-1)."""
    hist: dict[int, int] = {}
    for i in range(samples):
        M = synthesize(p, N, seed + i, **kw)
        d = vp(module_order(M), p) - (N - 1)
        hist[d] = hist.get(d, 0) + 1
    return {"p": p, "N": N, "samples": samples,
            "histogram": {str(k): hist[k] for k in sorted(hist)}}
