import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsclass.arith import (
    Factorization,
    factor,
    is_prime,
    kronecker,
    mv_bounds_hold,
    pi_class_count,
    prime_sieve,
    primes_in_class,
    sqrt_mod_prime,
    squarefree_core,
    vp,
)


def trial_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_exhaustive():
    for n in range(1, 5000):
        assert is_prime(n) == trial_is_prime(n)


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(13599893)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)


def test_is_prime_large_composites():
    # strong pseudoprime to base 2
    assert not is_prime(3215031751)
    p = 2 ** 61 - 1
    assert is_prime(p)
    assert not is_prime(p * p)


def test_factor_examples():
    assert factor(1983163).factors == ((7, 1), (13, 1), (19, 1), (31, 1), (37, 1))
    assert factor(1).factors == ()
    assert factor(1024).factors == ((2, 10),)


def test_factor_recompose_exhaustive():
    for n in range(1, 2000):
        f = factor(n)
        prod = 1
        for q, e in f.factors:
            assert is_prime(q)
            prod *= q ** e
        assert prod == n


@given(st.integers(min_value=2, max_value=10 ** 12))
@settings(max_examples=200, deadline=None)
def test_factor_recompose_random(n):
    f = factor(n)
    prod = 1
    for q, e in f.factors:
        assert is_prime(q)
        prod *= q ** e
    assert prod == n


def test_squarefree_core():
    assert squarefree_core(12) == (3, 2)
    assert squarefree_core(49) == (1, 7)
    assert squarefree_core(-255255) == (-255255, 1)
    for n in range(1, 500):
        core, cof = squarefree_core(n)
        assert core * cof * cof == n
        # core has no square factor
        d = 2
        while d * d <= abs(core):
            assert core % (d * d) != 0
            d += 1


def legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_kronecker_vs_legendre():
    for p in [3, 5, 7, 11, 13, 101, 997]:
        for a in range(-30, 30):
            assert kronecker(a, p) == legendre(a, p)


def test_kronecker_special_cases():
    assert kronecker(-15, 2) == 1  # -15 = 1 mod 8
    assert kronecker(5, 5) == 0
    for a in (-7, -1, 0, 1, 2, 9):
        assert kronecker(a, 1) == 1
    # multiplicativity in n
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(-50, 50)
        m = rng.randrange(1, 40)
        n = rng.randrange(1, 40)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_prime_sieve_matches_is_prime():
    isp = prime_sieve(5000)
    assert [n for n in range(5001) if isp[n]] == \
        [n for n in range(5001) if trial_is_prime(n)]


def test_sqrt_mod_prime():
    # q = 3 mod 4 takes one power, q = 1 mod 8 the full Tonelli-Shanks loop
    for q in (3, 7, 13, 17, 41, 65521, 999999937):
        for n in range(-40, 40):
            if kronecker(n, q) == 1:
                x = sqrt_mod_prime(n, q)
                assert 0 <= x < q and (x * x - n) % q == 0, (n, q)


def test_primes_in_class():
    assert primes_in_class(3, 5).primes == (7, 13, 19, 31, 37)
    assert primes_in_class(5, 3).primes == (11, 31, 41)
    assert primes_in_class(2, 3).primes == (3, 5, 7)


def test_primes_in_class_matches_sieve():
    # direct check against a straight sieve
    for p in (3, 5, 7):
        seq = primes_in_class(p, 50).primes
        direct = [q for q in range(2, seq[-1] + 1)
                  if trial_is_prime(q) and q % p == 1]
        assert list(seq) == direct


def test_pi_class_count():
    assert pi_class_count(37, 3) == 5
    assert pi_class_count(2, 3) == 0
    assert pi_class_count(100, 5) == len(
        [q for q in range(2, 101) if trial_is_prime(q) and q % 5 == 1])


def test_mv_bounds_small():
    r = mv_bounds_hold(1, 3)
    assert r.holds
    r = mv_bounds_hold(100, 3)
    assert r.holds
    r = mv_bounds_hold(100, 7)
    assert r.holds


def test_vp():
    assert vp(1, 2) == 0 and vp(-24, 2) == 3 and vp(3 ** 40 * 7, 3) == 40
    for n in range(1, 300):
        for p in (2, 3, 5):
            v = vp(n, p)
            assert n % p ** v == 0 and n % p ** (v + 1)
    with pytest.raises(ValueError):
        vp(0, 2)
