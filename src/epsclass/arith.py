"""Integer utilities: primality, factorization, symbols, primes 1 mod p."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, gcd, isqrt, log

import numpy as np

# deterministic Miller-Rabin witnesses for n < 2^64 (Sinclair's set)
_MR_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_PROBABILISTIC_ROUNDS = 64

_TRIAL_LIMIT = 10 ** 6
_RHO_ITER_CAP = 1 << 22

_small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class BudgetError(Exception):
    """Work above its budget, refused before it starts wherever its size
    is known: the CLI's exit code 3."""


class FactorBudgetError(BudgetError):
    """A cofactor resisted the configured factorization effort."""


@dataclass(frozen=True)
class Factorization:
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), ascending

    def omega(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class PrimeClassSequence:
    p: int
    primes: tuple[int, ...]


def _mr_round(n: int, a: int, d: int, s: int) -> bool:
    # True if n passes the Miller-Rabin round for witness a
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < 1 << 64:
        witnesses = _MR_WITNESSES_64
    else:
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(_PROBABILISTIC_ROUNDS)]
    return all(_mr_round(n, a, d, s) for a in witnesses)


def _brent_rho(n: int) -> int:
    # Brent's cycle variant; returns a nontrivial factor or raises
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    spent = 0
    while spent < _RHO_ITER_CAP:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < _RHO_ITER_CAP:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
                spent += min(m, r - k + m)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise FactorBudgetError(f"rho budget exhausted on {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factor(n: int) -> Factorization:
    if n < 1:
        raise ValueError("factor expects a positive integer")
    value = n
    out: dict[int, int] = {}
    for p in _small_primes:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 41
    while d * d <= n and d < _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        if d * d > n:
            out[n] = out.get(n, 0) + 1
        else:
            _factor_into(n, out)
    return Factorization(value, tuple(sorted(out.items())))


def vp(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("vp of 0 is infinite")
    if p < 2:
        raise ValueError(f"vp needs p >= 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def kronecker(a: int, n: int) -> int:
    if n == 0:
        return 1 if abs(a) == 1 else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # pull out the 2-part of n
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a|n) for odd n > 0
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def sqrt_mod_prime(n: int, q: int) -> int:
    """A square root of n mod the odd prime q (Tonelli-Shanks); n must be
    a quadratic residue mod q."""
    n %= q
    if q % 4 == 3:
        return pow(n, (q + 1) // 4, q)
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    x = pow(n, (s + 1) // 2, q)
    b = pow(n, s, q)
    g = pow(z, s, q)
    r = e
    while b != 1:
        t, m = b, 0
        while t != 1:
            t = t * t % q
            m += 1
        gs = pow(g, 1 << (r - m - 1), q)
        x = x * gs % q
        g = gs * gs % q
        b = b * g % q
        r = m
    return x


def prime_sieve(limit: int) -> np.ndarray:
    """isp[n] true iff n is prime, for 0 <= n <= limit."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i:: i] = False
    return sieve


# the largest sieve primes_in_class allocates: 256 MiB of bool
_SIEVE_CAP = 1 << 28


def primes_in_class(p: int, count: int) -> PrimeClassSequence:
    """First `count` primes totally split in Q(mu_p): l = 1 mod p for odd p,
    the odd primes 3, 5, 7, ... for p = 2.  The first sieve reaches
    Rosser's bound n (ln n + ln ln n) on the n-th prime, n = (p - 1) count
    + 1: enough for p = 2, where it is the (count + 1)-th prime, and about
    enough for odd p, where about 1 prime in p - 1 is 1 mod p.  It doubles
    until enough are found, trying _SIEVE_CAP itself before any limit
    past it.  ValueError, before it is allocated, for a sieve limit above
    _SIEVE_CAP."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n = (p - 1) * count + 1
    limit = max(1000, ceil(n * (log(n) + log(log(n)))))
    while limit <= _SIEVE_CAP:
        idx = np.flatnonzero(prime_sieve(limit))
        sel = idx[idx >= 3] if p == 2 else idx[idx % p == 1]
        if len(sel) >= count:
            return PrimeClassSequence(p, tuple(sel[:count].tolist()))
        limit = _SIEVE_CAP if limit < _SIEVE_CAP < 2 * limit else 2 * limit
    raise ValueError(f"the first {count} primes for p={p}: a sieve to "
                     f"{limit} exceeds the bound {_SIEVE_CAP}")


@dataclass(frozen=True)
class MVReport:
    p: int
    k_max: int
    holds: bool
    first_violation: tuple[int, int, str] | None  # (k, l_k, which bound)


def mv_bounds_hold(k_max: int, p: int) -> MVReport:
    """Check l_k > ((p-1)/2) k log(l_k/p) and pi(x;1,p) <= 2x/((p-1)log(x/p))
    at x = l_k for k = 1..k_max."""
    seq = primes_in_class(p, k_max)
    half = (p - 1) / 2.0
    for k, lk in enumerate(seq.primes, start=1):
        if lk <= half * k * log(lk / p):
            return MVReport(p, k_max, False, (k, lk, "l_k lower bound"))
        # pi(l_k; 1, p) = k by construction
        if k > 2 * lk / ((p - 1) * log(lk / p)):
            return MVReport(p, k_max, False, (k, lk, "pi upper bound"))
    return MVReport(p, k_max, True, None)
