"""Scale tier: per-summand filtration chains against whole-module
elimination.

Every synthesized module for p in {2, 3, 5, 7}, N in {2, 3, 4, 5} and
seeds 0 <= s < 500: 8,000 direct sums of group-ring blocks.  A sum
multiplies its summands' chains, each remembered on its shared block;
the same module rebuilt without summands (FinitePModule.build over its
relations) eliminates its whole relation lattice.  Both routes, direct
and iterated, must give the same chain of orders #M_i on each, as must
#M^G, and the filtration must pass the order identity.  About 25 s on
one core of a 2-core machine.

The file is named outside pytest's test_*.py pattern, so that the tier-1
run does not collect it; run it by name:

    PYTHONPATH=src python -m pytest -q scale/filtration_route.py
"""

import pytest

from epsclass import filtration

SEEDS = range(500)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_summand_chains_match_whole_module_elimination(p):
    for N in range(2, 6):
        for s in SEEDS:
            M = filtration.synthesize(p, N, s)
            whole = filtration.FinitePModule.build(p, M.relations, M.sigma)
            assert M.summands and not whole.summands
            assert M.fixed_order == whole.fixed_order == p ** (N - 1)
            assert M.direct_orders == whole.direct_orders, (p, N, s)
            assert M.iterated_orders == whole.iterated_orders, (p, N, s)
            assert M.direct_orders == M.iterated_orders, (p, N, s)
            result = filtration.filtration(M, N)
            assert filtration.order_identity_check(result), (p, N, s)
