import random
from math import exp, inf, lgamma, log

import pytest

from epsclass import epsanalysis as ea
from epsclass import pram, quadclass
from epsclass.arith import primes_in_class


def test_log_sqrt_disc():
    assert abs(ea.log_sqrt_disc(7, 3) - log(7)) < 1e-12
    assert abs(ea.log_sqrt_disc(1983163, 3) - 14.5002) < 5e-4
    assert abs(ea.log_sqrt_disc(100, 2) - 0.5 * log(100)) < 1e-12


def test_x_of_n_limit_and_monotone():
    # eps -> 0 with Delta = 0 gives (N-1) log p
    params = ea.BoundParams(3, 1e-15)
    assert abs(ea.X_of_N(10, params) - 9 * log(3)) < 1e-9
    # decreasing in eps
    vals = [ea.X_of_N(50, ea.BoundParams(3, e)) for e in (0.01, 0.1, 0.5)]
    assert vals[0] > vals[1] > vals[2]


def test_x_of_n_dual_form_random():
    random.seed(11)
    for _ in range(10 ** 4):
        p = random.choice([3, 5, 7, 11])
        params = ea.BoundParams(p, random.uniform(1e-4, 2.0),
                                random.uniform(-5, 5))
        N = random.uniform(2, 10 ** 8)
        delta = random.uniform(0, (p - 2) * (N - 1))
        ea.X_of_N(N, params, delta)   # asserts 1e-12 agreement internally


def test_x0_of_n():
    params = ea.BoundParams(7, 0.1)
    assert abs(ea.X0_of_N(1, params) - 6 * log(7)) < 1e-12
    assert ea.X0_of_N(1e30, params) < 0
    # published example
    assert abs(ea.X0_of_N(2.935394e16, params) - 8.8e15) < 0.005 * 8.8e15


def test_find_n0():
    n0, x0 = ea.find_N0(ea.BoundParams(7, 0.1))
    assert abs(n0 - 2.935394e16) < 0.002 * 2.935394e16
    assert abs(x0 - 8.8e15) < 0.005 * 8.8e15
    # strict local maximum
    params = ea.BoundParams(7, 0.1)
    assert ea.X0_of_N(n0 * 0.9, params) < x0
    assert ea.X0_of_N(n0 * 1.1, params) < x0
    # eps = 2 log p puts the maximum at N = 1
    n0, _ = ea.find_N0(ea.BoundParams(3, 2 * log(3)))
    assert abs(n0 - 1.0) < 1e-9


def test_y0_lower():
    params = ea.BoundParams(3, 0.05)
    v = ea.Y0_lower(100, params, 0, 1.0)
    # small eps: the (N-1) log p term still dominates
    assert 0 < v < 99 * log(3)
    big = ea.Y0_lower(100, ea.BoundParams(3, 5.0), 0, 1.0)
    assert big < 0 < v   # large eps flips the sign
    # upper form stays above the lower form at matching inputs
    for N in (10, 100, 1000):
        for p in (3, 5, 7):
            pr = ea.BoundParams(p, 0.1)
            delta = (p - 2) * (N - 1)
            assert ea.X_of_N(N, pr, delta) >= ea.Y0_lower(N, pr, delta, 1.0)


def test_h_eps_threshold():
    assert abs(ea.h_eps_threshold(-49, 7, 2, 2 * log(7) / log(7)) - 7.0) < 1e-9
    # eps with (sqrt D)^eps = p^(N-1) gives exactly 1
    eps = log(3) / (log(1000) / 2)
    assert abs(ea.h_eps_threshold(1000, 3, 2, eps) - 1.0) < 1e-12
    assert abs(ea.h_eps_threshold(-15, 3, 1, 0.5) - 15 ** 0.25) < 1e-12
    # monotone in |D|
    assert ea.h_eps_threshold(10 ** 6, 3, 5, 0.1) > \
        ea.h_eps_threshold(10 ** 5, 3, 5, 0.1)


def test_h_eps_family_goes_to_infinity():
    # along the degree-p family the threshold grows without bound once
    # eps * (p-1)/2 * log ell exceeds log p, i.e. past the analytic
    # crossover log ell > 2 log p / (eps (p-1))
    p, eps = 3, 0.5
    seq = primes_in_class(p, 10 ** 4)
    lsd = 0.0
    vals = []
    crossover = exp(2 * log(p) / (eps * (p - 1)))
    for N, ell in enumerate(seq.primes, start=1):
        lsd += (p - 1) / 2 * log(ell)
        vals.append(ea.log_h_eps(lsd, p, N, eps))
        if N >= 2 and seq.primes[N - 2] > crossover:
            assert vals[-1] > vals[-2]
    assert vals[-1] > 100
    assert vals[-1] == max(vals)


def test_stirling_log_factorial():
    v, b = ea.stirling_log_factorial(1)
    assert abs(v) <= b
    v, b = ea.stirling_log_factorial(10)
    assert abs(v - log(3628800)) <= max(b, 1e-9)
    for N in (10, 100, 10 ** 4, 10 ** 6):
        direct = lgamma(N + 1)
        stir = N * log(N) - N + 0.5 * log(2 * 3.14159265358979 * N)
        v, b = ea.stirling_log_factorial(N)
        assert abs(v - direct) <= max(b, 1e-8 * direct)
        assert abs(stir - direct) < 0.01 * max(1.0, direct)
    v, b = ea.stirling_log_factorial(10 ** 7)
    assert abs(v - lgamma(10 ** 7 + 1)) <= b + 1e-6 * v


def test_envelope_report():
    rep = ea.envelope_report([], 2, 0.05)
    assert rep.log_c == -inf and rep.rows == ()
    recs = pram.tor_scan(10 ** 6, 1000200, 2)
    rep = ea.envelope_report(recs, 2, 0.05, quantity="torsion")
    assert len(rep.rows) == len(recs)
    for row, rec in zip(rep.rows, recs):
        assert abs(row.c_value - rec.cp) < 1e-12
    assert rep.rows[-1].running_max == rep.log_c
    assert rep.log_c == max(r.log_excess for r in rep.rows)


def test_envelope_report_on_p_exponent_scan():
    recs = quadclass.scan_local_maxima(10 ** 4, "p_exponent", p=2)
    assert recs and all(r.d < 0 for r in recs)
    rep = ea.envelope_report(recs, 2, 0.1)
    assert len(rep.rows) == len(recs)
    for row, rec in zip(rep.rows, recs):
        assert row.d == -rec.d and row.quantity == rec.hp
        assert abs(row.c_value - rec.stat) < 1e-12
    assert rep.log_c == max(r.log_excess for r in rep.rows)
    genus = quadclass.scan_local_maxima(10 ** 4, "genus_normalized", eps=0.1)
    with pytest.raises(ValueError, match="p_exponent"):
        ea.envelope_report(genus, 2, 0.1)


def test_bound_params():
    for eps, c in ((-0.1, None), (0.0, None), (0.1, 1.5), (0.1, 0.0)):
        with pytest.raises(ValueError):
            ea.BoundParams(3, eps, c=c)
    pr = ea.BoundParams(5, 0.1, c=0.5)
    assert abs(pr.eps_eff - 0.6) < 1e-15
    assert abs(pr.gamma_p - (log(2) - 1)) < 1e-15
