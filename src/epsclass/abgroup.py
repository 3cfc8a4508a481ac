"""Finite abelian groups as decreasing divisor chains [d1, d2, ...].

The printed convention throughout is d_{i+1} | d_i (largest factor first),
e.g. Cl=[12,2,2,2].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from . import zlin
from .arith import factor, vp


@dataclass(frozen=True)
class AbelianGroupStructure:
    divisors: tuple[int, ...]  # decreasing divisibility chain, each >= 2

    def __post_init__(self):
        for d in self.divisors:
            if d < 2:
                raise ValueError("divisor chain entries must be >= 2")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if a % b:
                raise ValueError(f"not a divisibility chain: {self.divisors}")

    @property
    def order(self) -> int:
        return prod(self.divisors)

    def vp(self, p: int) -> int:
        return vp(self.order, p)

    def p_rank(self, p: int) -> int:
        return sum(1 for d in self.divisors if d % p == 0)

    def pr_rank(self, p: int, r: int) -> int:
        q = p ** r
        return sum(1 for d in self.divisors if d % q == 0)

    def p_part(self, p: int) -> "AbelianGroupStructure":
        out = []
        for d in self.divisors:
            q = p ** vp(d, p)
            if q > 1:
                out.append(q)
        return AbelianGroupStructure(tuple(out))

    def exponent(self) -> int:
        return self.divisors[0] if self.divisors else 1

    def __str__(self) -> str:
        return "[" + ",".join(str(d) for d in self.divisors) + "]"

    @classmethod
    def trivial(cls) -> "AbelianGroupStructure":
        return cls(())

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbelianGroupStructure":
        """Normalize an arbitrary list of cyclic orders into a chain."""
        by_prime: dict[int, list[int]] = {}
        for n in orders:
            if n < 1:
                raise ValueError("cyclic orders must be positive")
            if n == 1:
                continue
            for q, e in factor(n).factors:
                by_prime.setdefault(q, []).append(e)
        for q in by_prime:
            by_prime[q].sort(reverse=True)
        length = max((len(v) for v in by_prime.values()), default=0)
        chain = []
        for i in range(length):
            d = 1
            for q, es in by_prime.items():
                if i < len(es):
                    d *= q ** es[i]
            chain.append(d)
        return cls(tuple(chain))

    @classmethod
    def from_relation_matrix(cls, relations, ngens) -> "AbelianGroupStructure":
        divs = zlin.presentation_divisors(relations, ngens)
        return cls.from_cyclic_orders(divs)
