"""Reference implementations that the tests check epsclass against.

None is used by the program: the exact carrier QuadElt stands beside
pram's images mod p^n, the ambiguous-form count beside the genus 2-rank
of the class groups, the reducedness test of indefinite forms and their
enumeration by trial division beside their cycles and the narrow class
groups built from prime forms, pram's class data over the whole class
group beside its p-Sylow data, and the squarefree core from a full
factorization beside the discriminants quadclass reads off a factored
radicand.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from unittest import mock

import numpy as np
import pytest

from epsclass import pram, quadclass
from epsclass.arith import factor
from epsclass.quadforms import QuadForm


@dataclass(frozen=True)
class QuadElt:
    """(x + y*sqrt(D)), x and y exact rationals: an exact gamma carrier
    for quadforms.TrackedIdeal, the reference for pram's images mod p^n."""
    x: Fraction
    y: Fraction
    D: int

    def mul(self, other: "QuadElt") -> "QuadElt":
        return QuadElt(self.x * other.x + self.y * other.y * self.D,
                       self.x * other.y + self.y * other.x, self.D)

    def scale(self, n) -> "QuadElt":
        return QuadElt(self.x * n, self.y * n, self.D)

    def rho(self, b: int, c: int) -> "QuadElt":
        """self * (b - sqrt(D)) / (2c)."""
        return self.mul(QuadElt(Fraction(b, 2 * c), Fraction(-1, 2 * c),
                                self.D))

    def norm(self) -> Fraction:
        return self.x * self.x - self.y * self.y * self.D

    @classmethod
    def one(cls, D: int) -> "QuadElt":
        return cls(Fraction(1), Fraction(0), D)

    @classmethod
    def integer(cls, n, D: int) -> "QuadElt":
        return cls(Fraction(n), Fraction(0), D)


def squarefree_core(n: int) -> tuple[int, int]:
    """(core, cof) with n = core * cof^2 and core squarefree, n != 0."""
    if n == 0:
        raise ValueError("squarefree_core expects nonzero n")
    sign = -1 if n < 0 else 1
    core = 1
    cof = 1
    for q, e in factor(abs(n)).factors:
        if e % 2:
            core *= q
        cof *= q ** (e // 2)
    return sign * core, cof


def batch_ambiguous_counts(X: int) -> np.ndarray:
    """amb[d] = number of reduced ambiguous forms of discriminant -d
    (b = 0, b = a, or a = c); equals 2^(N-1) for fundamental -d."""
    amb = np.zeros(X + 1, dtype=np.int32)
    # b = 0: |D| = 4ac, c >= a
    a = 1
    while 4 * a * a <= X:
        amb[4 * a * a:: 4 * a] += 1
        a += 1
    # b = a: |D| = 4ac - a^2, c >= a
    a = 1
    while 3 * a * a <= X:
        amb[3 * a * a:: 4 * a] += 1
        a += 1
    # a = c, 0 < b < a: |D| = (2a-b)(2a+b) = uv, u < v < 3u, v = -u mod 4
    u = 1
    while u * (u + 1) <= X:
        v0 = u + (-2 * u) % 4
        if v0 == u:
            v0 += 4
        if u * v0 <= X:
            stop = min(3 * u * u, X + 1)
            amb[u * v0: stop: 4 * u] += 1
        u += 1
    return amb


def is_reduced_indefinite(f) -> bool:
    """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, for the form
    f = (a, b, c) of non-square discriminant D > 0."""
    D, b, ta = f.disc(), f.b, 2 * abs(f.a)
    return (0 < b and b * b < D and (ta + b) ** 2 > D
            and (ta <= b or (ta - b) ** 2 < D))


def reduced_forms_indefinite(D: int) -> list[QuadForm]:
    """All primitive reduced forms of non-square discriminant D > 0, by
    trial division of (D - b^2)/4 = -ac over 0 < b < sqrt(D), about D/4
    steps: the reference for the cycles of narrow_presentation, which
    reaches every class from the prime forms below sqrt(D)."""
    out = []
    sqD = isqrt(D)
    for b in range(D % 2 or 2, sqD + 1, 2):
        M = (D - b * b) // 4
        for a in range(max(1, (sqD - b) // 2), (sqD + b + 1) // 2 + 1):
            if M % a:
                continue
            f = QuadForm(a, b, -(M // a))
            if is_reduced_indefinite(f) and gcd(gcd(a, b), f.c) == 1:
                out += [f, QuadForm(-a, b, -f.c)]
    return out


@contextmanager
def whole_groups():
    """pram's imaginary class data over the whole class group, as before
    they presented the p-Sylow subgroup alone (enumerated h only)."""
    with mock.patch.object(pram, "full_imaginary_presentation",
                           lambda D, p: quadclass.imaginary_presentation(D)):
        yield


@pytest.fixture
def whole_group():
    """whole_groups() for the length of a test."""
    with whole_groups():
        yield
