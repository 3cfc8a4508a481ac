"""Reference values the benchmark checks the program against.

Everything here is computed without calling epsclass: class numbers by a
vectorised count of reduced forms, prime-divisor counts by trial
division, and the published rows the paper prints.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

# ---------------------------------------------------------- paper's rows

# Successive maxima of h / (2^(N-1) |D|^(eps/2)), eps = 0.05: (D, h, C).
GENUS_ROWS = [
    (-3, 1, 0.972908434869468710702241668941166407),
    (-23, 3, 2.773818617890694606606085132125197163),
    (-47, 5, 4.541167885124564220325740509229014479),
    (-71, 7, 6.292403751297605635733619062872115785),
    (-167, 11, 9.678872599268429560299054329160821597),
    (-191, 13, 11.400332501352005304200415816510168367),
    (-239, 15, 13.080709822134822456679612679136456819),
    (-311, 19, 16.460180420909375330798097085967676763),
    (-431, 21, 18.045019802162182082161592477498679286),
    (-479, 25, 21.425532320359474690178248184779886979),
]

# Successive maxima of the p-part of h: (D, h_p, C_p).
P_EXPONENT_ROWS = {
    3: [(-23, 3, 0.70075861284442195481324),
        (-199, 9, 0.83019007976763598642971),
        (-983, 27, 0.95661698654993161545339),
        (-3671, 81, 1.07074359233325762042197)],
    2: [(-15, 2, 0.511916049619630978775355357),
        (-39, 4, 0.756801438067480149325544162),
        (-95, 8, 0.913262080279460212705801846),
        (-399, 16, 0.925899677503555682939700450),
        (-791, 32, 1.038687593312750474942887870),
        (-2519, 64, 1.062075159346033035976072133)],
}

# Class-group structures printed in the paper.
CLASS_GROUP_ANCHORS = {-15015: "[12,2,2,2]", -255255: "[16,2,2,2,2]"}

# Running maxima of vptor (p = 2, n = 20) over 10^6 <= |D| <= 1000200.
TOR_SCAN_WINDOW = (10 ** 6, 1000200)
TOR_SCAN_ROWS = [(-1000011, 3), (-1000020, 3), (-1000036, 4), (-1000132, 5)]

# One isolated large torsion value: (D, vptor, Cp).
TOR_ANCHOR = (-1347524, 10, 0.982227596578)

# 2-ramification torsion T and its Cp for a few fields: (D, T, Cp).
TOR_REPORT_ANCHORS = {
    -15: ("[2]", 0.51191604961963097877535535772960454081),
    105: ("[2,2]", 0.59574824743531323067786608868687642325),
    -1155: ("[2,2,2]", 0.58975726471501581115878339498474155345),
    221: ("[16]", 1.0272342185833848333397010211662592994),
}


def agrees(got: float, want: float, digits: int = 10) -> bool:
    """`got` equals `want` to `digits` significant digits."""
    return abs(got - want) <= 5 * 10.0 ** -digits * abs(want)


# ------------------------------------------------------- integer helpers

def squarefree(n: int) -> bool:
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 1
    return True


def omega(n: int) -> int:
    """Number of distinct prime divisors of n > 0."""
    count, q = 0, 2
    while q * q <= n:
        if n % q == 0:
            count += 1
            while n % q == 0:
                n //= q
        q += 1
    return count + (n > 1)


def is_fundamental(D: int) -> bool:
    """D is the discriminant of a quadratic field."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return squarefree(abs(D))
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree(abs(m))
    return False


# ------------------------------------------------- reduced-form counting

class FormCounter:
    """Counts primitive reduced forms of negative discriminants.

    A reduced form (a, b, c) has -a < b <= a <= c, and b >= 0 when a = c.
    The pairs (a, b) are tabulated once up to `max_abs_d`, ordered by a,
    so a discriminant D uses the prefix with 3a^2 <= |D|.
    """

    def __init__(self, max_abs_d: int):
        amax = isqrt(max_abs_d // 3)
        a = np.repeat(np.arange(1, amax + 1, dtype=np.int64),
                      2 * np.arange(1, amax + 1))
        starts = np.repeat(np.arange(1, amax + 1) * np.arange(0, amax), 2 *
                           np.arange(1, amax + 1))
        offset = np.arange(a.size, dtype=np.int64) - starts
        self.a = a
        self.b = offset - a + 1          # runs over -a+1 .. a
        self.max_abs_d = max_abs_d

    def class_number(self, D: int) -> int:
        n = -D
        if not 3 <= n <= self.max_abs_d:
            raise ValueError(f"discriminant {D} outside the counted range")
        k = isqrt(n // 3)
        a, b = self.a[: k * (k + 1)], self.b[: k * (k + 1)]
        num = b * b + n
        hit = num % (4 * a) == 0
        a, b = a[hit], b[hit]
        c = num[hit] // (4 * a)
        keep = (c >= a) & ~((b < 0) & (c == a))
        a, b, c = a[keep], b[keep], c[keep]
        return int(np.count_nonzero(np.gcd(np.gcd(a, b), c) == 1))
