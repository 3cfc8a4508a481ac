"""Binary quadratic forms: reduction, Gauss composition, cycles,
and ideal arithmetic with tracked generators.

A form (a, b, c) of discriminant D = b^2 - 4ac corresponds to the lattice
ideal [a, (-b + sqrt(D))/2].  Imaginary discriminants have unique reduced
representatives; real (indefinite) discriminants reduce onto cycles.

Composition inputs are expected with a > 0 (every class, also indefinite,
has such representatives: the sign of a alternates along a cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .zlin import xgcd


class QuadForm(NamedTuple):
    """The form a x^2 + b xy + c y^2; ordered, hashed and compared as (a, b, c)."""
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c)

    def __repr__(self):
        return f"({self.a},{self.b},{self.c})"


def principal_form(D: int) -> QuadForm:
    k = D & 1
    return QuadForm(1, k, (k - D) // 4)


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Dirichlet composition of primitive forms, a > 0 (result not reduced).

    The corresponding ideal identity is I(f) * I(g) = d1 * I(compose(f, g))
    with d1 = gcd(f.a, g.a, (f.b + g.b)/2); see TrackedIdeal.mul.
    """
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _ = xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u, v = xgcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return QuadForm(a3, b3, c3)


# ---------------------------------------------------------------- imaginary

def reduce_imaginary(f: QuadForm) -> QuadForm:
    a, b, c = f.a, f.b, f.c
    if a < 0:
        a, c = -a, -c
    while True:
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c += (r * r - b * b) // (4 * a)
            b = r
        if a > c:
            a, b, c = c, -b, a
            continue
        if b < 0 and (a == c or b == -a):
            b = -b
        return QuadForm(a, b, c)


# |D| up to this keeps b^2 + |D| (b^2 <= |D|/3) and every product below
# 2^63, so the enumeration runs exactly in int64.
ENUM_INT64_LIMIT = 2 ** 62
# Pairs (b, a) per numpy pass, and b values per block: bounds every
# temporary array independently of |D|.
_ENUM_BLOCK = 1 << 14


def _isqrt_int64(M: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(M)) of int64 values 0 <= M < 2^62."""
    # above 2^52 float(M) may round across a square, so the float root is
    # off by at most 1; a correctly rounded sqrt errs upwards only
    r = np.sqrt(M).astype(np.int64)
    r -= r * r > M
    r += (r + 1) * (r + 1) <= M
    return r


def _reduced_form_arrays(D: int):
    """reduced_forms_imaginary's forms as int64 arrays a, b, c, by block."""
    absD = -D
    if absD > ENUM_INT64_LIMIT:
        raise ValueError(f"|D| = {absD} exceeds the int64 enumeration bound "
                         f"{ENUM_INT64_LIMIT}")
    bmax = isqrt(absD // 3)
    for b0 in range(absD & 1, bmax + 1, 2 * _ENUM_BLOCK):
        b = np.arange(b0, min(b0 + 2 * _ENUM_BLOCK, bmax + 1), 2,
                      dtype=np.int64)
        M = (b * b + absD) // 4
        lo = np.maximum(b, 1)
        count = _isqrt_int64(M) - lo + 1       # pairs (b[k], a) per b[k]
        end = np.cumsum(count)                 # b[k]'s pairs are numbered
        start = end - count                    # start[k] .. end[k] - 1
        off = start - lo                       # pair number - a
        total = int(end[-1])
        for s in range(0, total, _ENUM_BLOCK):
            e = min(s + _ENUM_BLOCK, total)
            j0 = int(np.searchsorted(end, s, "right"))
            j1 = int(np.searchsorted(start, e, "left"))
            n = np.minimum(end[j0:j1], e) - np.maximum(start[j0:j1], s)
            pos = np.arange(s, e)
            a = pos - np.repeat(off[j0:j1], n)
            Mk = np.repeat(M[j0:j1], n)
            hit = np.flatnonzero(Mk % a == 0)
            a, Mk = a[hit], Mk[hit]
            bk = b[np.searchsorted(end, pos[hit], "right")]
            c = Mk // a
            keep = np.gcd(np.gcd(a, bk), c) == 1
            a, bk, c = a[keep], bk[keep], c[keep]
            twin = (bk > 0) & (bk < a) & (a < c)
            rep = 1 + twin
            a, bk, c = np.repeat(a, rep), np.repeat(bk, rep), np.repeat(c, rep)
            bk[np.cumsum(rep)[twin] - 1] *= -1
            yield a, bk, c


def reduced_forms_imaginary(D: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D < 0 (one per class).

    The candidates are the pairs (b, a) with b = |D| mod 2, ..., isqrt(|D|/3)
    in steps of 2 and max(b, 1) <= a <= isqrt((b^2 + |D|)/4); a pair is a
    form when a divides (b^2 + |D|)/4 = a c and gcd(a, b, c) = 1.  The forms
    come out with b ascending, then a ascending, and (a, -b, c) right after
    (a, b, c) when 0 < b < a < c.  |D| above ENUM_INT64_LIMIT = 2^62 raises
    ValueError (int64 arithmetic would overflow; enumeration is infeasible
    far below that anyway).
    """
    return [f for a, b, c in _reduced_form_arrays(D)
            for f in map(QuadForm, a.tolist(), b.tolist(), c.tolist())]


def class_number_imaginary(D: int) -> int:
    return sum(len(a) for a, _, _ in _reduced_form_arrays(D))


# ---------------------------------------------------------------- indefinite

def _red_ind(a: int, b: int, D: int) -> bool:
    # 0 < b < sqrt(D)  and  sqrt(D) - b < 2|a| < sqrt(D) + b
    if b <= 0 or b * b >= D:
        return False
    ta = 2 * abs(a)
    if (b + ta) ** 2 <= D:          # 2|a| <= sqrt(D) - b
        return False
    if ta > b and (ta - b) ** 2 >= D:  # 2|a| >= sqrt(D) + b
        return False
    return True


def normalize_indefinite(f: QuadForm, sqD: int) -> QuadForm:
    a, b, c = f.a, f.b, f.c
    ta = 2 * abs(a)
    if abs(a) > sqD:
        # b in (-|a|, |a|]
        r = b % ta
        if r > abs(a):
            r -= ta
    else:
        # b in (sqD - 2|a|, sqD]
        r = b % ta
        r += ta * ((sqD - r) // ta)
    if r != b:
        c += (r * r - b * b) // (4 * a)
        b = r
    return QuadForm(a, b, c)


def rho_indefinite(f: QuadForm, sqD: int) -> QuadForm:
    return normalize_indefinite(QuadForm(f.c, -f.b, f.a), sqD)


def reduce_indefinite(f: QuadForm) -> QuadForm:
    D = f.disc()
    sqD = isqrt(D)
    g = normalize_indefinite(f, sqD)
    for _ in range(100000):
        if _red_ind(g.a, g.b, D):
            return g
        g = rho_indefinite(g, sqD)
    raise RuntimeError(f"indefinite reduction stuck on {f}")


def cycle_indefinite(f: QuadForm) -> list[QuadForm]:
    """The reduction cycle through (the reduction of) f."""
    D = f.disc()
    sqD = isqrt(D)
    start = f if _red_ind(f.a, f.b, D) else reduce_indefinite(f)
    out = [start]
    g = rho_indefinite(start, sqD)
    while g != start:
        out.append(g)
        g = rho_indefinite(g, sqD)
    return out


# ------------------------------------------------------- ideals with history

PRINCIPAL_WALK_STEPS = 200000   # rho steps before principal_generator gives up


@dataclass(frozen=True)
class TrackedIdeal:
    """The ideal gamma * [a, (-b + sqrt(D))/2] for the form (a, b, c).

    Multiplication and reduction keep gamma in step with the form, so once
    a principal ideal reaches |a| = 1, ideal(form) is the maximal order and
    the tracked ideal is (gamma).

    A walk starts as TrackedIdeal(f, one), and gamma stays in the carrier
    of `one`: any value with mul(other), scale(n) for an integer n, and
    rho(b, c), the product with (b - sqrt(D)) / (2c), will do. pram
    carries gamma locally above p that way (its _SplitGamma and
    _PrimeGamma), for relation generators and fundamental units alike.
    """
    form: QuadForm
    gamma: object

    def mul(self, other: "TrackedIdeal") -> "TrackedIdeal":
        f, g = self.form, other.form
        s = (f.b + g.b) // 2
        w = gcd(gcd(f.a, g.a), s)
        gam = self.gamma.mul(other.gamma)
        if w != 1:
            gam = gam.scale(w)
        return TrackedIdeal(compose(f, g), gam)

    def rho_step(self) -> "TrackedIdeal":
        # ideal(a,b,c) = mu * ideal(c,-b,a), mu = (b - sqrt(D)) / (2c)
        a, b, c = self.form.a, self.form.b, self.form.c
        D = self.form.disc()
        nxt = TrackedIdeal(QuadForm(c, -b, a), self.gamma.rho(b, c))
        if D < 0:
            return nxt._normalize_b()
        return nxt._normalize_indef(isqrt(D))

    def _normalize_b(self) -> "TrackedIdeal":
        # b-translation: same lattice, gamma unchanged
        a, b, c = self.form.a, self.form.b, self.form.c
        r = b % (2 * a)
        if r > a:
            r -= 2 * a
        if r != b:
            c += (r * r - b * b) // (4 * a)
            b = r
        return TrackedIdeal(QuadForm(a, b, c), self.gamma)

    def _normalize_indef(self, sqD: int) -> "TrackedIdeal":
        return TrackedIdeal(normalize_indefinite(self.form, sqD), self.gamma)

    def reduce(self) -> "TrackedIdeal":
        D = self.form.disc()
        if D < 0:
            cur = self._normalize_b()
            for _ in range(100000):
                a, b, c = cur.form.a, cur.form.b, cur.form.c
                if a > c:
                    cur = cur.rho_step()
                    continue
                if a == c and b < 0:
                    cur = cur.rho_step()
                return cur
            raise RuntimeError("imaginary reduction stuck")
        sqD = isqrt(D)
        cur = self._normalize_indef(sqD)
        for _ in range(100000):
            if _red_ind(cur.form.a, cur.form.b, D):
                return cur
            cur = cur.rho_step()
        raise RuntimeError("indefinite reduction stuck")

    def principal_generator(self):
        """Generator of the tracked ideal, in gamma's carrier; ValueError
        if the ideal is not principal."""
        cur = self.reduce()
        start = cur.form
        D = start.disc()
        steps = 0
        while abs(cur.form.a) != 1:
            if D < 0 or steps > PRINCIPAL_WALK_STEPS:
                raise ValueError("ideal is not principal (or walk exhausted)")
            cur = cur.rho_step()
            steps += 1
            if cur.form == start:
                # back at the start of the reduced cycle without |a| = 1
                raise ValueError("ideal is not principal")
        # value = gamma * ideal(form) = gamma * O = (gamma)
        return cur.gamma

