"""Finite abelian groups as decreasing divisor chains [d1, d2, ...].

The printed convention throughout is d_{i+1} | d_i (largest factor first),
e.g. Cl=[12,2,2,2].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import zlin
from .arith import vp


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

    def p_part(self, p: int) -> "AbelianGroupStructure":
        out = []
        for d in self.divisors:
            q = p ** vp(d, p)
            if q > 1:
                out.append(q)
        return AbelianGroupStructure(tuple(out))

    def __str__(self) -> str:
        return "[" + ",".join(str(d) for d in self.divisors) + "]"

    @classmethod
    def trivial(cls) -> "AbelianGroupStructure":
        return cls(())

    @classmethod
    def from_relation_matrix(cls, relations, ngens) -> "AbelianGroupStructure":
        """Z^ngens modulo the lattice of the relations, a list of vectors of
        length ngens: the elementary divisors > 1 of zlin.smith_diagonal,
        largest first.  ValueError if the quotient is infinite."""
        if ngens == 0:
            return cls.trivial()
        divs = zlin.smith_diagonal(relations)   # d1 | d2 | ...
        if len(divs) < ngens:
            raise ValueError("infinite quotient: relation rank < ngens")
        return cls(tuple(d for d in reversed(divs) if d > 1))


def power(x, e: int, op):
    """x^e for e >= 1 by binary powering (Cohen, GTM 138, Alg. 1.2.1),
    with op the group's product: one op per square and per further
    factor, no identity element, and x itself for e = 1."""
    if e < 1:
        raise ValueError(f"power needs e >= 1, got {e}")
    result = None
    while True:
        if e & 1:
            result = x if result is None else op(result, x)
        e >>= 1
        if not e:
            return result
        x = op(x, x)
