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
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .arith import prime_sieve
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


def _isqrt_int64(M: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(M)) of int64 values 0 <= M < 2^62."""
    # above 2^52 float(M) may round across a square, so the float root is
    # off by at most 1; a correctly rounded sqrt errs upwards only
    r = np.sqrt(M).astype(np.int64)
    r -= r * r > M
    r += (r + 1) * (r + 1) <= M
    return r


def _abs_disc(D: int) -> int:
    """|D| for a discriminant D < 0 (D = 0, 1 mod 4, D <= -3) up to
    ENUM_INT64_LIMIT; ValueError otherwise."""
    if D > -3 or D % 4 > 1:
        raise ValueError(f"{D} is not a negative discriminant")
    if -D > ENUM_INT64_LIMIT:
        raise ValueError(f"|D| = {-D} exceeds the int64 enumeration bound "
                         f"{ENUM_INT64_LIMIT}")
    return -D


def _reduced_form_arrays(D: int, a_min: int = 1):
    """reduced_forms_imaginary's forms with a >= a_min and b >= 0 as int64
    arrays a, b, c, with a mask twin of those whose (a, -b, c) is reduced
    too, from every candidate pair (b, a), a >= max(b, a_min), at once.
    The arrays hold one entry per pair: about 0.069 |D| of them from
    a_min = 1, and 0.006 |D| above a_min = sqrt(|D|)/2."""
    absD = _abs_disc(D)
    b = np.arange(absD & 1, isqrt(absD // 3) + 1, 2, dtype=np.int64)
    M = (b * b + absD) // 4
    lo = np.maximum(b, a_min)
    count = np.maximum(_isqrt_int64(M) - lo + 1, 0)
    # b[k]'s pairs are numbered start[k] .. start[k] + count[k] - 1
    start = np.cumsum(count) - count
    a = np.arange(int(count.sum())) - np.repeat(start - lo, count)
    b, M = np.repeat(b, count), np.repeat(M, count)
    hit = M % a == 0
    a, b, c = a[hit], b[hit], M[hit] // a[hit]
    keep = np.gcd(np.gcd(a, b), c) == 1
    a, b, c = a[keep], b[keep], c[keep]
    return a, b, c, (b > 0) & (b < a) & (a < c)


def reduced_forms_imaginary(D: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D < 0 (one per class).

    The candidates are the pairs (b, a) with b = |D| mod 2, ..., isqrt(|D|/3)
    in steps of 2 and max(b, 1) <= a <= isqrt((b^2 + |D|)/4); a pair is a
    form when a divides (b^2 + |D|)/4 = a c and gcd(a, b, c) = 1.  The forms
    come out with b ascending, then a ascending, and (a, -b, c) right after
    (a, b, c) when 0 < b < a < c.  D not = 0, 1 mod 4, D > -3 and |D|
    above ENUM_INT64_LIMIT = 2^62 raise ValueError (int64 arithmetic would
    overflow; enumeration is infeasible far below that anyway).  Every
    pair is held in memory at once: about 0.069 |D| of them, 21 MB of
    temporaries at |D| = 10^7.
    """
    a, b, c, twin = _reduced_form_arrays(D)
    rep = 1 + twin
    a, b, c = np.repeat(a, rep), np.repeat(b, rep), np.repeat(c, rep)
    b[np.cumsum(rep)[twin] - 1] *= -1
    return list(map(QuadForm, a.tolist(), b.tolist(), c.tolist()))


@lru_cache(maxsize=None)
def _root_tables(n: int):
    """Tables for the root counts with a <= n: the primes q <= n; 1 + (r/q)
    for each residue r mod each q, flat at offsets off (legendre[off[i] + r]
    for q[i]); the prime powers q^e <= n, as the index in q of their prime
    (pid), and for each prime the ids of its powers, ascending in e; and,
    for each 2 <= a <= n in turn, the ids of the prime powers exactly
    dividing a (ent[first[a]:first[a + 1]])."""
    q = np.flatnonzero(prime_sieve(n)).astype(np.int32)
    off = np.cumsum(q) - q
    # the squares x^2 mod q for x = 0 .. (q - 1) / 2, in place in int32
    # (x^2 < n^2 / 4): the temporaries are what a cold build pays for
    half = (q + 1) // 2
    x = np.arange(half.sum(), dtype=np.int32)
    x -= np.repeat(np.cumsum(half) - half, half)
    x *= x
    x %= np.repeat(q, half)
    x += np.repeat(off, half)
    legendre = np.zeros(int(q.sum()), dtype=np.int8)
    legendre[x] = 2
    legendre[off] = 1
    q = q.astype(np.int64)
    vals, cur = [], q
    while cur.size:                            # q^e for e = 1, 2, ...
        vals.append(cur)
        cur = cur * q[:cur.size]
        cur = cur[cur <= n]
    val = np.concatenate(vals)
    pid = np.concatenate([np.arange(v.size) for v in vals])
    powers = [[] for _ in range(q.size)]
    for j, i in enumerate(pid.tolist()):
        powers[i].append(j)
    # a = val * k for the k <= n / val prime to the prime of val
    cnt = n // val
    pp = np.repeat(np.arange(val.size), cnt)
    k = np.arange(pp.size) - np.repeat(np.cumsum(cnt) - cnt, cnt) + 1
    keep = k % q[pid[pp]] != 0
    a, pp = val[pp][keep] * k[keep], pp[keep]
    order = np.argsort(a, kind="stable")
    first = np.searchsorted(a[order], np.arange(n + 2))
    return q, off, legendre, pid, powers, pp[order], first


def _local_root_count(D: int, q: int, e: int) -> int:
    """The b mod q^e (mod 2^(e+1) for q = 2) with b^2 = D mod the q-part
    of 4 q^e, and q not dividing both b and c = (b^2 - D) / 4a for a
    with q^e || a: the factor at q^e of the number of reduced forms with
    that a, counted one b at a time."""
    qe = q ** e * (4 if q == 2 else 1)
    b = np.arange(qe // 2 if q == 2 else qe, dtype=np.int64)
    t = b * b + -D % (qe * q)                  # b^2 - D mod q qe
    ok = (t % qe == 0) & ((b % q != 0) | (t % (qe * q) != 0))
    return int(np.count_nonzero(ok))


def _root_count(D: int, s: int) -> int:
    """The number of reduced forms of discriminant D with a <= s, for
    4 s^2 < |D|.  For such a, c = (b^2 + |D|) / 4a > a, so every root
    b in (-a, a] of b^2 = D mod 4a with gcd(a, b, c) = 1 is one form.
    Whether b is a root, and primitive at a prime q | a, depends on b mod
    the q-part of 2a only (c moves by a + b when b moves by 2a), so the
    count N(a) is the product of local factors over the q^e || a: 1 +
    (D/q) for q prime to D, [e = 1] when q || D (q odd) or D = 8, 12
    mod 16 (q = 2), and else counted by _local_root_count."""
    if s < 2:
        return s                               # a = 1: the principal form
    q, off, legendre, pid, powers, ent, first = _root_tables(
        1 << (s - 1).bit_length())
    local = legendre[off + D % q]              # 1 + (D/q)
    if D & 1:
        local[0] = 2 if D % 8 == 1 else 0      # Kronecker (D/2), D = 1 mod 4
    factor = local[pid].astype(np.int64)
    for i in np.flatnonzero(local == 1).tolist():
        qi = int(q[i])
        if qi > s:
            break
        closed = D % (qi * qi) != 0 if qi > 2 else D % 16 in (8, 12)
        for e, j in enumerate(powers[i], 1):
            if qi ** e > s:
                break
            factor[j] = int(e == 1) if closed else _local_root_count(D, qi, e)
    n = np.multiply.reduceat(factor[ent[:first[s + 1]]], first[2:s + 1])
    return 1 + int(n.sum())


def class_number_imaginary(D: int) -> int:
    """h(D) for every discriminant D < 0, fundamental or not: the number
    of primitive reduced forms (Cohen, GTM 138, 5.3).  The forms with
    4 a^2 < |D| are counted from local root counts (_root_count); the band
    above them is enumerated, about 61,400 pairs at |D| = 10^7.  The
    program calls this for |D| <= quadclass.ENUM_CAP = 10^7 only; above
    it a call holds about 0.006 |D| pairs and root tables for a up to
    sqrt(|D|)/2 in memory.  D not = 0, 1 mod 4, D > -3 or |D| above
    ENUM_INT64_LIMIT raise ValueError."""
    s = isqrt(_abs_disc(D) - 1) // 2
    a, _, _, twin = _reduced_form_arrays(D, s + 1)
    return _root_count(D, s) + a.size + int(np.count_nonzero(twin))


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


def translate_indefinite(a: int, b: int, c: int, sqD: int) -> tuple:
    """(a, b', c') on the lattice of (a, b, c), b' = b mod 2a in
    (-|a|, |a|] when |a| > sqD, else in (sqD - 2|a|, sqD]."""
    ta = 2 * abs(a)
    r = b % ta
    if abs(a) > sqD:
        if r > abs(a):
            r -= ta
    else:
        r += ta * ((sqD - r) // ta)
    if r != b:
        c += (r * r - b * b) // (4 * a)
    return a, r, c


def rho_indefinite(f: QuadForm, sqD: int) -> QuadForm:
    return QuadForm(*translate_indefinite(f.c, -f.b, f.a, sqD))


def reduce_indefinite(f: QuadForm) -> QuadForm:
    """The first reduced form on f's way to its cycle: its b-translation,
    then rho steps, taken as integers (a, b, c)."""
    D = f.disc()
    sqD = isqrt(D)
    a, b, c = translate_indefinite(*f, sqD)
    for _ in range(100000):
        if _red_ind(a, b, D):
            return QuadForm(a, b, c)
        a, b, c = translate_indefinite(c, -b, a, sqD)
    raise RuntimeError(f"indefinite reduction stuck on {f}")


def cycle_indefinite(f: QuadForm) -> list[QuadForm]:
    """The reduction cycle through (the reduction of) f, stepped as
    integers (a, b, c) and built into a QuadForm per form returned."""
    D = f.disc()
    sqD = isqrt(D)
    start = f if _red_ind(f.a, f.b, D) else reduce_indefinite(f)
    out = [start]
    a, b, c = translate_indefinite(start.c, -start.b, start.a, sqD)
    while (a, b, c) != start:
        out.append(QuadForm(a, b, c))
        a, b, c = translate_indefinite(c, -b, a, sqD)
    return out


# ------------------------------------------------------- ideals with history

def _translate(a: int, b: int, c: int, sqD: int | None) -> tuple:
    """(a, b', c') on the lattice of (a, b, c): b' = b mod 2a in (-a, a]
    for D < 0 (sqD None), as translate_indefinite puts it for D > 0
    (sqD = isqrt(D))."""
    if sqD is not None:
        return translate_indefinite(a, b, c, sqD)
    r = b % (2 * a)
    if r > a:
        r -= 2 * a
    if r != b:
        c += (r * r - b * b) // (4 * a)
    return a, r, c


@dataclass(frozen=True)
class TrackedIdeal:
    """The ideal gamma * [a, (-b + sqrt(D))/2] for the form (a, b, c).

    Multiplication and reduction keep gamma in step with the form, so once
    a principal ideal reaches |a| = 1, ideal(form) is the maximal order and
    the tracked ideal is (gamma).

    A walk starts as TrackedIdeal(f, one), and gamma stays in the carrier
    of `one`: any value with mul(other), div(other), scale(n) for an
    integer n, and rho(b, c), the product with (b - sqrt(D)) / (2c), will
    do. pram carries gamma locally above p that way (its _Gamma, for every
    splitting type), for relation generators and fundamental units alike,
    and takes a real relation's generator as one div by the gamma its
    reduced form has on the principal cycle.  `reduce` steps the form as
    integers (a, b, c) beside the carrier, with isqrt(D) taken once per
    walk, and builds no TrackedIdeal on the way.
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
        # ideal(a,b,c) = mu * ideal(c,-b,a), mu = (b - sqrt(D)) / (2c),
        # then the b-translation, which keeps the lattice
        a, b, c = self.form
        D = self.form.disc()
        form = _translate(c, -b, a, isqrt(D) if D > 0 else None)
        return TrackedIdeal(QuadForm(*form), self.gamma.rho(b, c))

    def reduce(self) -> "TrackedIdeal":
        # the b-translation, then rho steps until the form is reduced
        D = self.form.disc()
        sqD = isqrt(D) if D > 0 else None
        a, b, c = _translate(*self.form, sqD)
        gamma = self.gamma
        for _ in range(100000):
            if (_red_ind(a, b, D) if D > 0
                    else a < c or (a == c and b >= 0)):
                return TrackedIdeal(QuadForm(a, b, c), gamma)
            gamma = gamma.rho(b, c)
            a, b, c = _translate(c, -b, a, sqD)
        raise RuntimeError(f"reduction stuck on {self.form}")

    def principal_generator(self):
        """Generator of the tracked ideal for D < 0, in gamma's carrier:
        the one reduced principal form is the principal form, a = 1.
        ValueError if the ideal is not principal, or if D > 0: a real
        ideal's generator is its reduced form's entry in the table of its
        principal cycle (pram.fundamental_unit)."""
        if self.form.disc() > 0:
            raise ValueError("a real ideal's generator comes from the table "
                             "of its principal cycle")
        cur = self.reduce()
        if cur.form.a != 1:
            raise ValueError("ideal is not principal")
        # value = gamma * ideal(form) = gamma * O = (gamma)
        return cur.gamma
