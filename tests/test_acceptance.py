"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass line; run with ``pytest -v -s`` for the
full report.  The slow loops (per-field class groups up to 10^5, the
scans to 10^6) keep the whole suite in the minutes range.
"""

import random
from math import log

import numpy as np
import pytest

from epsclass import cubic, epsanalysis, filtration, pram, quadclass
from epsclass.arith import factor, mv_bounds_hold
from epsclass.quadclass import ClassNumberCapError
from oracles import batch_ambiguous_counts


def ok(n, detail):
    print(f"criterion {n}: PASS — {detail}")


def sig10(got, want):
    return abs(got - want) <= 5e-10 * abs(want)


@pytest.fixture(scope="module")
def arrays6():
    return quadclass.scan_arrays(10 ** 6)


def test_criterion_01_class_groups_native(arrays6):
    harr, fund, _, _ = arrays6
    checked = 0
    for d in range(3, 10 ** 5):
        if not fund[d]:
            continue
        g = quadclass.class_group_imaginary(-d)
        assert g.order == int(harr[d]), -d
        checked += 1
    assert int(harr[3]) == 1 and int(harr[23]) == 3 and int(harr[47]) == 5
    anchors = [(-15, "[2]"), (105, "[2,2]"), (-1155, "[2,2,2]"),
               (-15015, "[12,2,2,2]"), (-255255, "[16,2,2,2,2]"),
               (4849845, "[4,2,2,2,2,2]")]
    for m, want in anchors:
        g = (quadclass.class_group_imaginary(quadclass.fundamental_discriminant(m))
             if m < 0 else quadclass.narrow_class_group_real(m))
        assert str(g) == want, m
    ok(1, f"{checked} imaginary class numbers vs brute force, "
          f"{len(anchors)} structure anchors")


def test_criterion_02_genus_rigidity(arrays6):
    _, fund, om, _ = arrays6
    X = 10 ** 6
    amb = batch_ambiguous_counts(X)
    d = np.arange(X + 1)
    f = fund[: X + 1]
    assert np.all(amb[f] == 2 ** (om[f].astype(np.int64) - 1)), \
        int(d[f][np.argmax(amb[f] != 2 ** (om[f].astype(np.int64) - 1))])
    # real side: narrow groups per field on a sample
    checked_real = 0
    for m in range(2, 3000):
        try:
            dd = quadclass.fundamental_discriminant(m)
        except ValueError:
            continue
        quadclass.genus_delta(dd)   # asserts rk_2 = N - 1 internally
        checked_real += 1
    ok(2, f"2-rank = omega(D)-1 for all {int(np.count_nonzero(f))} "
          f"fundamental |D| <= 10^6 (imaginary, exact) and "
          f"{checked_real} real fields")


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

P3_ROWS = [(-23, 3, 0.70075861284442195481324),
           (-199, 9, 0.83019007976763598642971),
           (-983, 27, 0.95661698654993161545339),
           (-3671, 81, 1.07074359233325762042197)]

P2_ROWS = [(-15, 2, 0.511916049619630978775355357),
           (-39, 4, 0.756801438067480149325544162),
           (-95, 8, 0.913262080279460212705801846),
           (-399, 16, 0.925899677503555682939700450),
           (-791, 32, 1.038687593312750474942887870),
           (-2519, 64, 1.062075159346033035976072133)]


def test_criterion_03_maxima_tables(arrays6):
    recs = quadclass.scan_local_maxima(10 ** 6, "genus_normalized", 0.05,
                                       arrays=arrays6)
    for rec, (D, h, C) in zip(recs[:10], GENUS_ROWS):
        assert (rec.d, rec.h) == (D, h)
        assert sig10(rec.stat, C), D
    for p, rows in ((3, P3_ROWS), (2, P2_ROWS)):
        recs = quadclass.scan_local_maxima(10 ** 6, "p_exponent", p=p,
                                           arrays=arrays6)
        for rec, (D, hp, C) in zip(recs, rows):
            assert (rec.d, rec.hp) == (D, hp)
            tol = 1e-6 if p == 3 else 5e-10 * C
            assert abs(rec.stat - C) <= tol, D
    ok(3, "genus-normalized top 10 rows (10 digits), p=3 rows to 1e-6, "
          "p=2 rows through D=-2519 (10 digits)")


def test_criterion_04_prime_disc_maxima(arrays6):
    for eps in (0.05, 0.1):
        recs = quadclass.scan_local_maxima(10 ** 6, "genus_normalized", eps,
                                           arrays=arrays6)
        rep = quadclass.prime_disc_report(recs)
        assert rep.all_prime, (eps, rep.violations[:3])
    ok(4, "all genus-normalized local maxima have prime |D| "
          "for eps in {0.05, 0.1}, |D| <= 10^6")


def test_criterion_05_cubic_enumeration():
    assert len(cubic.cubic_polynomials(1983163)) == 16
    assert len(cubic.cubic_polynomials(3895721091)) == 8
    n = 0
    for f in cubic.enumerate_conductors(10 ** 5):
        flds = cubic.cubic_polynomials(f)
        assert len(flds) == 2 ** (factor(f).omega() - 1), f
        for fld in flds:
            assert cubic.discriminant_filter(fld), (f, fld)
        n += len(flds)
    ok(5, f"16/8 counts at the two large conductors; {n} fields over "
          f"conductors <= 10^5, all square-discriminant, count = 2^(N-1)")


def test_criterion_06_fixture_validation():
    rep = cubic.validate_all()
    assert rep.ok, rep.failures[:5]
    ok(6, f"{rep.rows} fixture rows in {rep.files} files pass all checks "
          f"(incl. Cp to 6 digits)")


def test_criterion_07_filtration_engine(arrays6):
    random.seed(3)
    count = 0
    seed = 0
    while count < 10 ** 3:
        N = random.Random(seed).choice([2, 3, 4])
        M = filtration.synthesize(3, N, seed)
        seed += 1
        if filtration.module_order(M) > 3 ** 8:
            continue
        direct = filtration.filtration(M, N)
        assert direct == filtration.filtration_iterated(M, N)
        assert filtration.order_identity_check(direct)
        count += 1
    harr, fund, _, _ = arrays6
    checked = 0
    for d in range(3, 10 ** 5):
        if not fund[d]:
            continue
        M, N = filtration.from_quadratic(-d)
        res = filtration.filtration(M, N)   # enforces #M_1 = 2^(N-1)
        assert res.t[0] == 0 if res.m else True
        v = 0
        h = int(harr[d])
        while h % 2 == 0:
            h //= 2
            v += 1
        assert res.order == 2 ** v, -d
        checked += 1
    ok(7, f"dual-route agreement on 1000 synthesized modules; rank/Delta "
          f"match on {checked} imaginary fields |D| <= 10^5")


def test_criterion_08_n0_bound():
    n0, x0 = epsanalysis.find_N0(epsanalysis.BoundParams(7, 0.1))
    assert abs(n0 - 2.935394e16) <= 0.002 * 2.935394e16
    assert abs(x0 - 8.8e15) <= 0.005 * 8.8e15
    ok(8, f"N0 = {n0:.6e} (0.2%), X0 = {x0:.3e} (0.5%)")


TOR_ANCHORS = [
    (-15, "[2]", 0.51191604961963097877535535772960454081),
    (105, "[2,2]", 0.59574824743531323067786608868687642325),
    (-1155, "[2,2,2]", 0.58975726471501581115878339498474155345),
    (-15015, "[2,2,2,2]", 0.57661327808675875001115538902772596330),
    (221, "[16]", 1.0272342185833848333397010211662592994),
]


def test_criterion_09_torsion_groups():
    for m, want, cp in TOR_ANCHORS:
        rep = pram.tor_report(m, 2)
        assert str(rep.tor_structure) == want, m
        assert sig10(rep.c_tilde, cp), m
    rep = pram.tor_report(-101091716, 2)
    assert str(rep.tor_structure) == "[1024,4,2]"
    assert sig10(rep.c_tilde, 0.97777114254342282551717)
    # the 10^19-discriminant index computation exceeds BSGS_CAP:
    # stretch goal; fall back to the index identity on in-budget fields
    stretch = True
    try:
        assert pram.ktilde_index(-73786976290585731943, 2) == 2 ** 25
    except ClassNumberCapError:
        stretch = False
        checked = 0
        for d in range(3, 500):
            if not pram.is_fundamental_neg(d):
                continue
            assert pram.ktilde_index(-d, 2) >= 1   # raises if not integral
            checked += 1
        assert pram.ktilde_index(-101091716, 2) == 2
    ok(9, "T structures + Cp (10 digits) on 6 anchors; "
          + ("2^25 index reproduced" if stretch else
             f"index identity on {checked} in-budget fields "
             f"(10^19 field over budget: stretch goal skipped)"))


def test_criterion_10_reflection_identity():
    checked = 0
    for d in range(3, 10 ** 4 + 1):
        if not pram.is_fundamental_neg(d):
            continue
        assert pram.reflection_check(-d, 2), -d
        checked += 1
    ok(10, f"rk_2 reflection identity on {checked} imaginary fields "
           f"|D| <= 10^4")


def test_criterion_11_tor_scans():
    recs = pram.tor_scan(10 ** 6, 1000200, 2)
    assert [(r.D, r.vptor) for r in recs] == \
        [(-1000011, 3), (-1000020, 3), (-1000036, 4), (-1000132, 5)]
    assert sig10(recs[1].cp, 0.3010295598834164958938994188)
    shard = pram.tor_scan(1347000, 1348000, 2)
    hit = next(r for r in shard if r.D == -1347524)
    assert hit.vptor == 10
    assert sig10(hit.cp, 0.982227596578)
    assert not any(r.error for r in recs + shard)
    ok(11, "p=2 scan rows at 10^6 and the (-1347524, 10, 0.982227596578) "
           "row reproduced (vptor exact, Cp 10 digits)")


def test_criterion_12_analytic_bounds():
    for p in (3, 5, 7, 11):
        rep = mv_bounds_hold(10 ** 5, p)
        assert rep.holds, (p, rep.first_violation)
    random.seed(23)
    for _ in range(10 ** 4):
        p = random.choice([3, 5, 7, 11])
        params = epsanalysis.BoundParams(p, random.uniform(1e-4, 2.0),
                                         random.uniform(-5, 5))
        N = random.uniform(2, 10 ** 8)
        delta = random.uniform(0, (p - 2) * (N - 1))
        epsanalysis.X_of_N(N, params, delta)   # asserts 1e-12 agreement
    ok(12, "both prime-counting inequalities hold for k <= 10^5, "
           "p in {3,5,7,11}; dual-form bound agreement on 10^4 inputs")
