import random
import tracemalloc
from collections import Counter
from math import gcd, isqrt, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epsclass import arith, pram, quadforms
from epsclass import quadclass as qc
from epsclass.abgroup import AbelianGroupStructure, power
from epsclass.arith import prime_sieve
from epsclass.quadforms import (
    compose,
    principal_form,
    reduce_imaginary,
    reduced_forms_imaginary,
)
from oracles import (
    batch_ambiguous_counts,
    omega_loop,
    reduced_forms_indefinite,
    scan_candidates_loop,
    scan_windows,
    squarefree_core,
)


def test_squarefree_core():
    # the oracle (tests/oracles.py) that the discriminant tests below read
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


def _fundamental_sample(rng, lo, hi, count):
    """`count` fundamental D < 0 with lo <= |D| <= hi, drawn by rng."""
    out = []
    while len(out) < count:
        d = rng.randrange(lo, hi + 1)
        if d % 4 not in (0, 3):
            continue
        try:
            out.append(qc.discriminant_from_value(-d).value)
        except ValueError:
            pass
    return out


def test_fundamental_discriminant():
    d = qc.fundamental_discriminant(-15)
    assert (d.value, d.radicand, d.ramified_count) == (-15, -15, 2)
    d = qc.fundamental_discriminant(105)
    assert (d.value, d.ramified_count) == (105, 3)
    d = qc.fundamental_discriminant(-5)
    assert (d.value, d.ramified_count) == (-20, 2)
    with pytest.raises(ValueError):
        qc.fundamental_discriminant(12)
    with pytest.raises(ValueError):
        qc.fundamental_discriminant(1)


def test_fundamental_discriminant_factors_once(monkeypatch):
    calls = []
    real_factor = arith.factor

    def counting_factor(n, *args):
        calls.append(n)
        return real_factor(n, *args)

    monkeypatch.setattr(qc, "factor", counting_factor)
    monkeypatch.setattr(arith, "factor", counting_factor)
    rng = random.Random(17)
    ms = [-1, 2, -2, 3, -3, 5, -5, 6, -7, 105, -15015, 4849845, -255255]
    ms += [rng.choice((-1, 1)) * rng.randrange(2, 10 ** 9) for _ in range(300)]
    checked = 0
    for m in ms:
        core, cof = squarefree_core(m)       # reference: factors |m| itself
        D = m if m % 4 == 1 else 4 * m
        omega = real_factor(abs(D)).omega()
        calls.clear()
        if cof != 1:
            with pytest.raises(ValueError):
                qc.fundamental_discriminant(m)
        else:
            d = qc.fundamental_discriminant(m)
            assert (d.value, d.radicand, d.ramified_count) == (D, m, omega), m
            # one prime discriminant per prime of D, each q* = 1 mod 4 or
            # -4, 8, -8, with product D
            assert prod(d.prime_discs) == D, m
            assert sorted(max(real_factor(abs(q)).factors)[0]
                          for q in d.prime_discs) == \
                [q for q, _ in real_factor(abs(D)).factors], m
            assert all(q % 4 == 1 or q in (-4, 8, -8)
                       for q in d.prime_discs), m
            checked += 1
        assert calls == [abs(m)], m
    assert checked > 150


def test_class_group_imaginary_examples():
    assert qc.class_group_imaginary(-23).divisors == (3,)
    assert qc.class_group_imaginary(-3).divisors == ()
    assert qc.class_group_imaginary(-47).divisors == (5,)
    assert str(qc.class_group_imaginary(qc.fundamental_discriminant(-15015))) \
        == "[12,2,2,2]"
    assert str(qc.class_group_imaginary(qc.fundamental_discriminant(-255255))) \
        == "[16,2,2,2,2]"


def _assert_matches_full_staircase(D):
    """class_group_imaginary(D) and each Sylow presentation of square order
    against the presentation of the whole group; returns its structure."""
    full = qc.imaginary_presentation(D).structure()
    assert qc.class_group_imaginary(D) == full, D
    h = len(reduced_forms_imaginary(D))
    for q in qc._square_sylow_orders(h):
        p = min(f for f in range(2, q + 1) if q % f == 0)
        assert qc.imaginary_presentation(D, h // q, q).structure() == \
            full.p_part(p), (D, q)
    return full


# d = 4k - r as in the BSGS property below: 3 <= d <= 10^6, drawn directly,
# so that assume() filters only the non-fundamental d
@given(st.integers(min_value=1, max_value=10 ** 6 // 4),
       st.sampled_from([1, 0]))
@settings(max_examples=60, deadline=None)
def test_class_group_imaginary_matches_full_staircase(k, r):
    try:
        D = qc.discriminant_from_value(r - 4 * k).value
    except ValueError:
        assume(False)
    _assert_matches_full_staircase(D)


@pytest.mark.parametrize("D,want", [
    # odd Sylow subgroups that are not cyclic
    (-3299, "[9,3]"), (-4027, "[3,3]"), (-11199, "[20,5]"), (-63499, "[7,7]"),
    (-3321607, "[63,3,3]"), (-1000036, "[24,4,2]"),
    # Delta >= 2 with 2Cl_2 not cyclic, as the full staircase gives them
    (-2379, "[4,4]"), (-4895, "[16,4]"), (-6360, "[4,4,2]"),
    (-8103, "[12,4]"), (-31864, "[8,8]"),
    # every fundamental D < 0 with h = 1
    (-3, "[]"), (-4, "[]"), (-7, "[]"), (-8, "[]"), (-11, "[]"), (-19, "[]"),
    (-43, "[]"), (-67, "[]"), (-163, "[]"),
])
def test_class_group_imaginary_sylow_anchors(D, want):
    assert str(_assert_matches_full_staircase(D)) == want


def test_class_group_imaginary_matches_full_staircase_everywhere():
    # Cl_2 read from genus theory (2-rank omega - 1, a staircase on 2Cl_2
    # alone) against the staircase over the whole group, which does not
    # use omega, at every fundamental |D| <= 3*10^4
    _, fund, om, _ = qc.scan_arrays(3 * 10 ** 4)
    for d in np.flatnonzero(fund).tolist():
        full = qc.imaginary_presentation(-d).structure()
        assert qc.class_group_imaginary(-d) == full, -d
        assert full.p_rank(2) == om[d] - 1, -d


def test_class_group_imaginary_above_enum_cap():
    # h = 30304 = 2^5 * 947 from L(1, chi), omega = 2, so Delta = 4: the
    # cyclic Cl_2 that the golden filtration-run --d -20000000003 reads
    assert str(qc.class_group_imaginary(-20000000003)) == "[30304]"


# ------------------------------------------- Cl_2 on a genus basis (p = 2)

def _assert_genus_route(D, rng, samples=20):
    """full_imaginary_presentation(D, 2) against the staircase over Cl_2 =
    Cl^h', imaginary_presentation(D, h', 2^v): the same h, structure and
    quotient by P^h' for the prime P above 2 (unless 2 is inert), and for
    classes x of Cl_2 drawn by rng, dlog coordinates that give x back
    through op.  Returns the genus presentation, or None when v = 0."""
    h, pres = qc.full_imaginary_presentation(D, 2)
    v = arith.vp(h, 2)
    ref = qc.imaginary_presentation(D, h >> v, 1 << v)
    assert pres.h == ref.h == 1 << v, D
    assert pres.structure() == ref.structure(), D
    if v == 0:
        assert isinstance(pres, qc.ClassGroupPresentation), D
        return None
    assert isinstance(pres, qc.GenusPresentation), D
    assert len(pres.gens) == qc.as_disc(D).ramified_count - 1, D
    P = qc.prime_form(D, 2)
    if P is not None:
        Pk = power(P, h >> v, pres.op)
        assert pres.quotient(Pk) == ref.quotient(Pk), D
    classes = list(ref.dlog_table)
    one = reduce_imaginary(principal_form(D))
    for x in rng.sample(classes, min(samples, len(classes))):
        y = one
        for g, e in zip(pres.gens, pres.dlog(x)):
            if e:
                y = pres.op(y, power(g, e, pres.op))
        assert y == x, (D, x)
    return pres


# d = 4k - r: 3 <= d <= 2 ENUM_CAP, on both sides of ENUM_CAP, where h is
# counted below and summed from L(1, chi) above
@given(st.integers(min_value=1, max_value=qc.ENUM_CAP // 2),
       st.sampled_from([1, 0]), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
@example(k=qc.ENUM_CAP // 4 + 1, r=1, seed=0)       # -10000003, h = 706
@example(k=qc.ENUM_CAP // 4 + 1, r=0, seed=1)       # -10000004, h = 1648
def test_genus_route_matches_the_staircase(k, r, seed):
    try:
        D = qc.discriminant_from_value(r - 4 * k).value
    except ValueError:
        assume(False)
    _assert_genus_route(D, random.Random(seed))


@pytest.mark.parametrize("D,chars,want", [
    # h = 1: no genus work, the staircase's trivial group
    (-3, (), "[]"), (-4, (), "[]"), (-8, (), "[]"),
    # the 2-characters of even D read: -4, 8 and -8
    (-20, (-4,), "[2]"), (-84, (-4, -3), "[2,2]"), (-56, (8,), "[4]"),
    (-24, (8,), "[2]"), (-40, (-8,), "[2]"),
    (-1000036, (-4, 29, 37), "[8,4,2]"),
    # v = r: Cl_2 elementary, every generator ramified
    (-1155, (-3, 5, -7), "[2,2,2]"),
    # Delta >= 3
    (-255255, (-3, 5, -7, -11, 13), "[16,2,2,2,2]"),
    (-4895, (5, -11), "[16,4]"), (-31864, (8, -7), "[8,8]"),
    (-10295, (5, 29), "[32,4]"), (-16887, (-3, 13), "[8,4]"),
])
def test_genus_route_anchors(D, chars, want):
    pres = _assert_genus_route(D, random.Random(D), samples=64)
    assert str(qc.full_imaginary_presentation(D, 2)[1].structure()) == want
    if pres is not None:
        assert pres.chars == chars
        assert prod(qc.as_disc(D).prime_discs) == D


def test_genus_route_everywhere():
    # every fundamental |D| <= 10^4 (3043 fields, about 2 s on a 2-core
    # machine), each class of each Cl_2 through dlog and back; the 621
    # fields of odd h (-4, -8 and -q for the primes q = 3 mod 4) take the
    # staircase
    _, fund, _, _ = qc.scan_arrays(10 ** 4)
    rng = random.Random(4)
    routed = 0
    for d in np.flatnonzero(fund).tolist():
        routed += _assert_genus_route(-d, rng, samples=10 ** 4) is not None
    assert routed == 3043 - 621


def test_genus_route_ramified_generators_compose_nothing():
    # v = r: the ramified prime forms alone span Cl/Cl^2, each its own
    # h'-th power, and 2Cl_2 is trivial, so nothing is composed; from
    # -1000007 on a prime below the ramified ones splits (2 for -1000007
    # and -1000055, 5 for -1000051, 7 for -10000003), whose h'-th power an
    # ascending walk would compose
    compose_calls = [0]

    def counted(f, g):
        compose_calls[0] += 1
        return compose(f, g)
    with mock.patch.object(qc, "compose", counted):
        for D in (-84, -1155, -20, -24, -40, -1000007, -1000055, -1000051,
                  -10000003):
            h, pres = qc.full_imaginary_presentation(D, 2)
            assert arith.vp(h, 2) == len(pres.gens), D
            assert all(D % g.a == 0 for g in pres.gens), D
    assert compose_calls[0] == 0


def test_genus_route_compositions_on_the_golden_window():
    # tor-scan --p 2 --min-d 1000000 --max-d 1000200: 61 fundamental
    # fields; Cl_2 took 27.8 compositions a field over the staircase of
    # all of Cl_2, and 10.2 on a genus basis walked over the prime forms
    # ascending.  With the ramified forms walked first it takes 4.1
    compose_calls = [0]

    def counted(f, g):
        compose_calls[0] += 1
        return compose(f, g)
    fields = [disc for d in range(10 ** 6, 1000201)
              if (disc := pram.is_fundamental_neg(d)) is not None]
    assert len(fields) == 61
    with mock.patch.object(qc, "compose", counted):
        for disc in fields:
            qc.full_imaginary_presentation(disc, 2)
    assert compose_calls[0] <= 5 * len(fields)


@pytest.mark.parametrize("D", [-23, -119, -356, -1055, -3299, -15015])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_sylow_canon_projects_every_class(D, p):
    # x -> x^k, k = h/p^v, maps the classes onto the p-Sylow subgroup
    # Cl^k: its table holds exactly the reduced k-th powers of the reduced
    # forms, and its canon is reduce_imaginary itself
    forms = reduced_forms_imaginary(D)
    h = len(forms)
    q = p ** arith.vp(h, p)
    pres = qc.imaginary_presentation(D, h // q, q)
    assert pres.canon is reduce_imaginary
    assert set(pres.dlog_table) == {power(f, h // q, pres.op) for f in forms}


def test_class_group_imaginary_counts_h_once(monkeypatch):
    # h = 936 = 2^3 * 3^2 * 13: two Sylow presentations share one count
    calls = []

    def counted(D):
        calls.append(D)
        return quadforms.class_number_imaginary(D)
    monkeypatch.setattr(qc, "class_number_imaginary", counted)
    assert qc.class_group_imaginary(-9999995).order == 936
    assert calls == [-9999995]


def test_class_group_imaginary_composes_only_in_square_sylows():
    # nothing is composed exactly when Delta = 0 (Cl_2 is elementary, read
    # from genus theory) and every odd Sylow subgroup has prime order;
    # otherwise the staircases of 2Cl_2 and of the odd Sylow subgroups of
    # order p^v >= p^2, with their powers, stay within the full
    # staircase's h - 1
    compose_calls = [0]

    def counted(f, g):
        compose_calls[0] += 1
        return compose(f, g)
    none = elementary = 0
    for D in _fundamental_sample(random.Random(37), 10 ** 5, 10 ** 6, 25):
        compose_calls[0] = 0
        with mock.patch.object(qc, "compose", counted):
            h = qc.class_group_imaginary(D).order
        v = arith.vp(h, 2)
        odd = h >> v
        if v == qc.as_disc(D).ramified_count - 1 and \
                all(arith.vp(odd, p) < 2 for p in range(3, isqrt(odd) + 1)):
            none += 1
            elementary += v > 1
            assert compose_calls[0] == 0, D
        else:
            assert 0 < compose_calls[0] <= h - 1, D
    # some of the fields that compose nothing have a Cl_2 of square order
    # (-196052: h = 268 = 2^2 * 67, Cl_2 = [2,2]), and some do not
    assert none > elementary > 0


def test_class_group_imaginary_skips_ramified_forms_for_even_k():
    # h(-16003) = 12 = 2^2 * 3 with 13 | D: the 2Cl_2 staircase raises each
    # prime form to an even power, under which a ramified class (order
    # <= 2) is the identity, so it is not powered (13 compositions before,
    # against the full staircase's h - 1)
    compose_calls = [0]

    def counted(f, g):
        compose_calls[0] += 1
        return compose(f, g)
    with mock.patch.object(qc, "compose", counted):
        g = qc.class_group_imaginary(-16003)
    assert compose_calls[0] <= 11
    assert g == qc.imaginary_presentation(-16003).structure()
    assert g.order == 12


def test_real_class_groups():
    d = qc.fundamental_discriminant(105)
    assert str(qc.narrow_class_group_real(d)) == "[2,2]"
    assert str(qc.ordinary_class_group_real(d)) == "[2]"
    d = qc.fundamental_discriminant(221)
    assert str(qc.narrow_class_group_real(d)) == "[4]"
    assert str(qc.ordinary_class_group_real(d)) == "[2]"
    d = qc.fundamental_discriminant(5)
    assert qc.narrow_class_group_real(d).order == 1
    assert qc.ordinary_class_group_real(d).order == 1
    d = qc.fundamental_discriminant(4849845)
    assert str(qc.narrow_class_group_real(d)) == "[4,2,2,2,2,2]"
    assert str(qc.ordinary_class_group_real(d)) == "[4,2,2,2,2]"
    # as the enumeration of every reduced form gave them, before the prime
    # forms below sqrt(D) replaced it
    for D, narrow, ordinary in ((1833820, "[2,2]", "[2]"),
                                (1723985, "[2]", "[2]"),
                                (1989181, "[2]", "[]")):
        d = qc.discriminant_from_value(D)
        assert str(qc.narrow_class_group_real(d)) == narrow, D
        assert str(qc.ordinary_class_group_real(d)) == ordinary, D


# D = 4k + r, so that assume() filters only the non-fundamental D
@given(st.integers(min_value=1, max_value=10 ** 5 // 4),
       st.sampled_from([1, 0]))
@settings(max_examples=60, deadline=None)
def test_narrow_class_number_counts_the_cycles(k, r):
    # every cycle of reduced forms is one narrow class, and the staircase
    # over the prime forms below sqrt(D) reaches each of them
    try:
        d = qc.discriminant_from_value(4 * k + r)
    except ValueError:
        assume(False)
    forms = set(reduced_forms_indefinite(d.value))
    cycles = 0
    while forms:
        forms -= set(quadforms.cycle_indefinite(forms.pop()))
        cycles += 1
    assert qc.narrow_presentation(d).h == cycles


def test_narrow_vs_ordinary_factor():
    # h+ in {h, 2h}
    for m in (2, 3, 5, 10, 79, 105, 221, 229):
        d = qc.fundamental_discriminant(m)
        hp = qc.narrow_class_group_real(d).order
        h = qc.ordinary_class_group_real(d).order
        assert hp in (h, 2 * h), (m, hp, h)


def test_p_part():
    g = AbelianGroupStructure((39, 3, 3, 3, 3))
    assert g.p_part(3).divisors == (3, 3, 3, 3, 3)
    g = AbelianGroupStructure((12, 2, 2, 2))
    assert g.p_part(2).divisors == (4, 2, 2, 2)
    assert g.p_part(7).order == 1


def test_genus_delta():
    assert qc.genus_delta(qc.fundamental_discriminant(-255255)) == (6, 3)
    assert qc.genus_delta(qc.fundamental_discriminant(-15)) == (2, 0)
    assert qc.genus_delta(qc.fundamental_discriminant(4849845)) == (7, 1)


def test_genus_delta_sigma_inversion():
    # Delta = v_2 of the order of Cl^2 (sigma acts as inversion)
    for m in (-15, -1155, -15015, -255255):
        d = qc.fundamental_discriminant(m)
        pres = qc.imaginary_presentation(d.value)
        squares = {pres.op(f, f) for f in pres.dlog_table}
        _, delta = qc.genus_delta(d)
        v = 0
        n = len(squares)
        while n % 2 == 0:
            n //= 2
            v += 1
        assert v == delta, m


def test_batch_class_numbers_match_enumeration():
    X = 3000
    h, fund, om, isp = qc.scan_arrays(X)
    for d in range(3, X + 1):
        if fund[d]:
            assert h[d] == len(reduced_forms_imaginary(-d)), d


def test_batch_ambiguous_is_genus_count():
    X = 20000
    _, fund, om, _ = qc.scan_arrays(X)
    amb = batch_ambiguous_counts(X)
    for d in range(3, X + 1):
        if fund[d]:
            assert amb[d] == 1 << (int(om[d]) - 1), d


def test_scan_genus_normalized_first_rows():
    recs = qc.scan_local_maxima(500, "genus_normalized", eps=0.05)
    got = [(r.d, r.h) for r in recs]
    assert got[:4] == [(-3, 1), (-23, 3), (-47, 5), (-71, 7)]
    assert abs(recs[0].stat - 0.9729084349) < 1e-9
    assert abs(recs[1].stat - 2.7738186179) < 1e-9


def test_scan_p_exponent():
    recs = qc.scan_local_maxima(5000, "p_exponent", p=3)
    assert [(r.d, r.hp) for r in recs] == [(-23, 3), (-199, 9), (-983, 27),
                                           (-3671, 81)]
    assert abs(recs[0].stat - 0.70075861) < 1e-6
    recs = qc.scan_local_maxima(100, "p_exponent", p=2)
    assert [(r.d, r.hp) for r in recs] == [(-15, 2), (-39, 4), (-95, 8)]
    # the h_p filter's powers of p never end for p < 2
    for p in (0, 1):
        with pytest.raises(ValueError, match="p >= 2"):
            qc.scan_local_maxima(100, "p_exponent", p=p)


def test_scan_p_exponent_maxima_are_taken_on_hp():
    # h_3 = 243 at |D| = 29399 is a maximum whose statistic, 1.068, is
    # below that of h_3 = 81 at 3671 (1.071)
    recs = qc.scan_local_maxima(30000, "p_exponent", p=3)
    assert [(r.d, r.hp) for r in recs[-2:]] == [(-3671, 81), (-29399, 243)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(X=st.integers(0, 3 * 10 ** 4), k=st.integers(1, 5))
@example(X=50, k=5)
def test_sieve_shards_sum_to_whole_table(X, k):
    # shard j of k counts the forms with a = j + 1 mod k; past
    # sqrt(X/3) shards are empty (a <= 4 at X = 50)
    whole = qc.batch_class_numbers_imaginary(X)
    shards = [qc.batch_class_numbers_imaginary(X, j, k) for j in range(k)]
    total = shards[0].copy()
    for t in shards[1:]:
        total += t
    assert total.dtype == whole.dtype and np.array_equal(total, whole)
    assert sum(t.any() for t in shards) == min(k, isqrt(X // 3))


_SCAN_STATS = [("genus_normalized", 0.05, 0), ("genus_normalized", 0.0, 0),
               ("genus_normalized", -0.3, 0), ("raw", 0.1, 0),
               ("raw", 3.0, 0), ("p_exponent", 0.0, 3), ("p_exponent", 0.0, 2),
               ("p_exponent", 0.0, 5)]


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_scans_match_loops_across_blocks(monkeypatch, block):
    # tiny blocks put block boundaries inside and at the ends of every
    # window
    monkeypatch.setattr(qc, "_SCAN_BLOCK", block)
    X = 3000
    arrays = qc.scan_arrays(X)
    for lo, hi in scan_windows(X, seed=block):
        for stat, eps, p in _SCAN_STATS:
            want = scan_candidates_loop(lo, hi, stat, eps, p, arrays)
            assert qc.scan_candidates(lo, hi, stat, eps, p,
                                      arrays) == want, (lo, hi, stat)


@pytest.mark.parametrize("scale", [1 + 2.0 ** -45, 1 - 2.0 ** -45])
def test_scan_records_hold_a_block_statistic_ulps_off(monkeypatch, scale):
    # np.power may differ from Python's ** by a few ulps on SIMD builds;
    # block statistics a relative 2^-45 off lose no record
    block_statistic = qc._block_statistic
    monkeypatch.setattr(qc, "_block_statistic",
                        lambda *args: block_statistic(*args) * scale)
    arrays = qc.scan_arrays(3000)
    for stat, eps, p in _SCAN_STATS:
        assert qc.scan_candidates(3, 3000, stat, eps, p, arrays) == \
            scan_candidates_loop(3, 3000, stat, eps, p, arrays), (stat, eps)


def test_scan_records_hold_near_ties_ulps_off(monkeypatch):
    # statistics 2^-50 apart, whose block values are 2^-45 low at odd |D|
    # and high at even |D|: a record can sit below the best so far or the
    # block's running maximum, and only the filter's 2^-40 margin keeps it
    # a candidate
    def tied(h):
        return 1 + h * 2.0 ** -50

    monkeypatch.setattr(qc, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(qc, "scan_statistic",
                        lambda stat, d, h, N, eps=0.0, p=0: tied(h))
    monkeypatch.setattr(qc, "_block_statistic", lambda stat, d, h, N, eps, p:
                        tied(h) * np.where(d % 2, 1 - 2.0 ** -45,
                                           1 + 2.0 ** -45))
    arrays = qc.scan_arrays(3000)
    want = scan_candidates_loop(3, 3000, "raw", 0.0, 0, arrays)
    assert len(want) > 10
    assert qc.scan_candidates(3, 3000, "raw", 0.0, 0, arrays) == want


def test_scan_omega_matches_every_prime_loop():
    # at and around the squares of primes, where sqrt(X) gains a prime
    Xs = list(range(61)) + [p * p + k for p in (2, 3, 5, 7, 11, 31, 97)
                            for k in (-1, 0, 1)]
    for X in Xs:
        om = qc.scan_arrays(X)[2]
        assert om.dtype == np.int8 and np.array_equal(om, omega_loop(X)), X


@settings(max_examples=20, deadline=None, derandomize=True)
@given(X=st.integers(0, 3 * 10 ** 4))
def test_scan_omega_matches_every_prime_loop_seeded(X):
    assert np.array_equal(qc.scan_arrays(X)[2], omega_loop(X))


def _fundamental_loop(X):
    return np.array([pram.is_fundamental_neg(d) is not None
                     for d in range(X + 1)], dtype=bool)


def test_scan_fundamental_mask_matches_the_scalar_rule():
    # around the squares of primes, and at |D| = 3, 4, 7, 8 mod 16 near
    # 10^4, where each of the mask's three slices ends
    Xs = (list(range(81)) + [p * p + k for p in (2, 3, 5, 7, 11, 31, 97)
                             for k in (-1, 0, 1)]
          + [X for X in range(10 ** 4 - 16, 10 ** 4 + 16)
             if X % 16 in (3, 4, 7, 8)])
    for X in Xs:
        fund = qc.scan_arrays(X)[1]
        assert fund.dtype == bool and np.array_equal(fund,
                                                     _fundamental_loop(X)), X


@settings(max_examples=20, deadline=None, derandomize=True)
@given(X=st.integers(0, 3 * 10 ** 4))
def test_scan_fundamental_mask_matches_the_scalar_rule_seeded(X):
    assert np.array_equal(qc.scan_arrays(X)[1], _fundamental_loop(X))


def test_scan_arrays_peak_memory():
    # the mask once came from int64 arange and % temporaries of length X,
    # which set the traced peak at 18 MB
    X = 10 ** 6
    h = qc.batch_class_numbers_imaginary(X)
    tracemalloc.start()
    try:
        qc.scan_arrays(X, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_scan_fields_are_the_fundamental_discriminants():
    arrays = qc.scan_arrays(3000)
    got = [d for d, _, _, _ in qc.scan_fields(-5, 3000, arrays)]
    assert got == [d for d in range(3, 3001) if pram.is_fundamental_neg(d)]


def test_prime_disc_report():
    recs = qc.scan_local_maxima(3000, "genus_normalized", eps=0.05)
    rep = qc.prime_disc_report(recs)
    assert rep.all_prime
    raw = qc.scan_local_maxima(3000, "raw", eps=0.05)
    rep = qc.prime_disc_report(raw)
    assert not rep.all_prime
    assert any(r.d == -15 for r in rep.violations)  # D = -[3,1;5,1], h=2
    assert qc.prime_disc_report([]).all_prime


def test_bsgs_agrees_with_enumeration():
    # the L-series h and the whole group class_number_bsgs presents, against
    # the enumerated reduced forms and the Sylow-wise structure
    rng = random.Random(4)
    Ds = (_fundamental_sample(rng, 10 ** 5, 4 * 10 ** 5, 20)
          + _fundamental_sample(rng, 4 * 10 ** 5, 2 * 10 ** 6, 60))
    for D in Ds:
        forms = reduced_forms_imaginary(D)
        h, bsgs = qc.class_number_bsgs(D)
        assert qc._class_number_series(D) == len(forms), D
        assert h == bsgs.h, D
        assert set(bsgs.dlog_table) == set(forms), D
        assert bsgs.structure() == qc.class_group_imaginary(D), D


def test_bsgs_structure_matches_enumeration():
    for d in (-998771, -424708):
        g1 = qc.class_number_bsgs(d)[1].structure()
        g2 = qc.class_group_imaginary(d)
        assert g1.divisors == g2.divisors


# d = 4k - 1 or 4k: every 3 <= d <= 10^7 with d = 0, 3 mod 4, drawn
# directly, so that assume() filters only the non-fundamental d
@given(st.integers(min_value=1, max_value=10 ** 7 // 4),
       st.sampled_from([1, 0]))
@settings(max_examples=25, deadline=None)
def test_bsgs_structure_matches_enumeration_property(k, r):
    try:
        D = qc.discriminant_from_value(r - 4 * k).value
    except ValueError:
        assume(False)
    h, pres = qc.class_number_bsgs(D)
    assert (h, pres.structure()) == (len(reduced_forms_imaginary(D)),
                                     qc.class_group_imaginary(D))


def test_bsgs_class_number_one():
    # every fundamental D < 0 with h = 1; the series holds for D < -4
    for D in (-3, -4, -7, -8, -11, -19, -43, -67, -163):
        h, pres = qc.class_number_bsgs(D)
        assert (h, pres.h, pres.gens) == (1, 1, []), D
        assert D > -5 or qc._class_number_series(D) == 1, D


_NON_FUNDAMENTAL = [-12, -16, -27, -28, -60, -36, -48, -75, -99]


# ids -12, ... for class_number_bsgs, -12-exact, ... for
# imaginary_presentation and 20-narrow, 45-narrow for the real one
@pytest.mark.parametrize("D,build", [
    pytest.param(D, build, id=f"{D}{suffix}")
    for build, suffix, Ds in (
        (qc.class_number_bsgs, "", _NON_FUNDAMENTAL),
        (qc.imaginary_presentation, "-exact", _NON_FUNDAMENTAL),
        (qc.narrow_presentation, "-narrow", [20, 45]))
    for D in Ds])
def test_bsgs_rejects_non_fundamental(D, build):
    # the prime-form bounds and the ramified prime forms hold for the
    # maximal order only: these D once gave [2] for h = 1, [2,2] for -60
    # (whose group is [2]) or a presentation that failed its own order
    # check; 20 and 45, orders of conductor 2 and 3 in Q(sqrt(5)), gave
    # their form class groups
    with pytest.raises(ValueError):
        build(D)


def test_bsgs_cap():
    with pytest.raises(qc.ClassNumberCapError):
        qc.class_number_bsgs(-(10 ** 14 + 3))


# d = 4k - r, r = 1 or 0, as in the property test above: 4 < d <= ENUM_CAP
@given(st.integers(min_value=2, max_value=qc.ENUM_CAP // 4),
       st.sampled_from([1, 0]))
@settings(max_examples=40, deadline=None)
def test_class_number_series_matches_count(k, r):
    try:
        D = qc.discriminant_from_value(r - 4 * k).value
    except ValueError:
        assume(False)
    assert qc._class_number_series(D) == quadforms.class_number_imaginary(D)


# h above ENUM_CAP, as the deleted GRH staircase (Bach's bound) gave it
@pytest.mark.parametrize("D,h", [
    (-10000003, 706), (-19399380, 1536), (-100000007, 7253),
    (-892371480, 10240), (-1000000000011, 273744)])
def test_class_number_above_enum_cap(D, h):
    assert qc._class_number(D) == h


def test_class_number_series_refuses_a_short_sum(monkeypatch):
    # a sum cut off at a fifth of its terms (x_N^2 = 1, not 25) leaves a
    # tail bound above 1/4: an error, never a rounded h
    monkeypatch.setattr(qc, "_SERIES_X2", 1)
    for D in (-10000003, -100000007):
        with pytest.raises(qc.ClassNumberCapError, match="not certified"):
            qc._class_number(D)


def test_class_number_refusals(monkeypatch):
    # the series holds for fundamental D only; above SERIES_CAP neither its
    # prime sieve nor a count is started, nor is D factored
    for D in (-40000012, -90000027, -12, -27):
        with pytest.raises(ValueError):
            qc._class_number(D)

    def boom(*args):
        raise AssertionError("a table or a factorization was started")
    for name in ("prime_sieve", "class_number_imaginary", "factor"):
        monkeypatch.setattr(qc, name, boom)
    for D in (-(qc.SERIES_CAP + 3), -(10 ** 14 + 3)):
        with pytest.raises(qc.ClassNumberCapError):
            qc._class_number(D)


def test_narrow_enumeration_cap():
    # m_10 of the odd-primorial family; ENUM_CAP bounds the cycle walks and
    # pram's fundamental-unit walk, which grow with the regulator
    for D in (100280245065, qc.ENUM_CAP + 1):
        with pytest.raises(qc.ClassNumberCapError):
            qc.narrow_presentation(D)


def test_normic_search_desk_scale():
    recs = qc.normic_search(2, 3, 2)
    assert recs
    for r in recs:
        assert r.error is None
        assert r.h % r.hp == 0
    recs = qc.normic_search(3, 2, 2)
    assert any(r.hp >= 3 for r in recs if r.error is None)


def test_normic_search_factors_each_candidate_once(monkeypatch):
    calls = []
    real_factor = arith.factor

    def counting_factor(n, *args):
        calls.append(n)
        return real_factor(n, *args)

    monkeypatch.setattr(qc, "factor", counting_factor)
    monkeypatch.setattr(arith, "factor", counting_factor)
    recs = qc.normic_search(2, 1, 3, 50)
    # 4 * 3^2 - a^2 > 0 for a = 1..5: one factorization per B
    assert calls == [35, 32, 27, 20, 11]
    assert [(r.d, r.h, r.hp) for r in recs] == [(-35, 2, 2)]


def test_normic_search_refuses_a_range_above_enum_cap(monkeypatch):
    # a <= isqrt(4 q^(p^rho) - 1) is the budget, checked before any B is
    # factored: 4 * 3^1024 once ran unbounded, and p^rho = 2^40 would
    # have formed a 2^40 log2(3)-bit Y
    def no_factor(n, *args):
        raise AssertionError(f"{n} was factored")
    monkeypatch.setattr(qc, "factor", no_factor)
    for p, rho, q in [(2, 10, 3), (2, 40, 3), (3, 10 ** 9, 2),
                      (2, 1, 5 * 10 ** 6 + 1),
                      (2, 0, 25 * 10 ** 12 + 10 ** 7),
                      # a <= 9,999,999 passes the check above, but each of
                      # its fields could take a series of 5.6 * 10^7 terms
                      (2, 0, 25 * 10 ** 12)]:
        with pytest.raises(qc.ClassNumberCapError):
            qc.normic_search(p, rho, q)
    monkeypatch.undo()
    # at the edge: isqrt(4q - 1) is 100 for q = 2550, 101 for q = 2551
    monkeypatch.setattr(qc, "ENUM_CAP", 100)
    assert qc.normic_search(2, 0, 2550, 1)
    with pytest.raises(qc.ClassNumberCapError):
        qc.normic_search(2, 0, 2551, 1)


def test_normic_search_refuses_a_run_above_its_series_budget(monkeypatch):
    # the count of a times the series length at |D| = 4Y: Y = 4 * 3^4 =
    # 324 has a <= 17 and 102 terms at |D| = 1296, so 1734 terms in all
    Y = 4 * 3 ** 4
    assert (isqrt(Y - 1), qc._series_length(4 * Y)) == (17, 102)
    monkeypatch.setattr(qc, "NORMIC_TERMS", 17 * 102)
    assert qc.normic_search(2, 2, 3)
    monkeypatch.setattr(qc, "NORMIC_TERMS", 17 * 102 - 1)
    with pytest.raises(qc.ClassNumberCapError, match="series terms"):
        qc.normic_search(2, 2, 3)
    # --max-a narrows the range the budget counts
    assert qc.normic_search(2, 2, 3, 16)
    # the golden searches are far within the budget
    monkeypatch.undo()
    for p, rho, q, top in [(2, 1, 3, 50), (2, 3, 7, 40)]:
        Y = 4 * q ** (p ** rho)
        assert min(isqrt(Y - 1), top) * qc._series_length(4 * Y) < \
            qc.NORMIC_TERMS // 100


@pytest.mark.parametrize("p,rho,q", [(2, 2, 3), (2, 2, 5)])
def test_normic_search_matches_reference(p, rho, q):
    """Against the route that factors each candidate twice: the
    factorization of B through squarefree_core, then that of m through
    fundamental_discriminant."""
    Y = 4 * q ** (p ** rho)
    expected = []
    for a in range(1, isqrt(Y - 1) + 1):
        m, b = squarefree_core(Y - a * a)
        if gcd(a, b) > 2:
            continue
        d = qc.fundamental_discriminant(-m)
        h = qc.class_group_imaginary(d).order
        hp = p ** arith.vp(h, p)
        if hp > max((r[2] for r in expected), default=0):
            expected.append((d.value, h, hp, d.ramified_count))
    got = qc.normic_search(p, rho, q)
    assert [(r.d, r.h, r.hp, r.n) for r in got] == expected


def test_c_kp():
    assert qc.c_kp(1, qc.fundamental_discriminant(-15)) == 0.0
    d = qc.discriminant_from_value(-3671)
    assert abs(qc.c_kp(81, d) - 1.07074359) < 1e-6
    # huge D: log sqrt without overflow
    assert abs(qc.c_kp(2 ** 32, qc.fundamental_discriminant(
        -(10 ** 400 + 289))) > 0)


def test_composition_group_laws_sampled():
    rng = random.Random(8)
    for _ in range(20):
        d = rng.randrange(3, 10 ** 4)
        if d % 4 not in (0, 3):
            continue
        pres_forms = reduced_forms_imaginary(-d)
        if not pres_forms:
            continue
        from epsclass.quadforms import compose, reduce_imaginary
        f, g, h = (rng.choice(pres_forms) for _ in range(3))
        ab = reduce_imaginary(compose(f, g))
        ba = reduce_imaginary(compose(g, f))
        assert ab == ba
        assert reduce_imaginary(compose(ab, h)) == \
            reduce_imaginary(compose(f, reduce_imaginary(compose(g, h))))


def test_one_prime_sieve():
    assert qc.batch_prime is prime_sieve


# --------------------------------------- staircase adjoin against the old loop

def _adjoin_reference(self, e):
    # the adjoin before the powers of e were kept: it walks them twice and
    # composes every identity-row entry with the identity
    dlog, op = self.dlog_table, self.op
    k, cur = 1, e
    while cur not in dlog:
        cur = op(cur, e)
        k += 1
    idx = len(self.gens)
    self.gens.append(e)
    self.orders.append(k)
    self.words.append(dlog[cur] + (0,) * (idx - len(dlog[cur])))
    base = list(dlog.items())
    cur = next(iter(dlog))
    for j in range(1, k):
        cur = op(cur, e)
        for elt, vec in base:
            dlog[op(elt, cur)] = vec + (0,) * (idx - len(vec)) + (j,)


def _snapshot(pres):
    return (pres.gens, pres.orders, pres.words, list(pres.dlog_table.items()))


def _assert_matches_reference(build, *args):
    """build(*args) gives the same presentation, dict order included, with
    the old adjoin as with the new one."""
    with mock.patch.object(qc.ClassGroupPresentation, "adjoin",
                           _adjoin_reference):
        ref = build(*args)
    new = build(*args)
    assert _snapshot(new) == _snapshot(ref), args
    return new


# d = 4k - r as in the property test above: 3 <= d <= 10^6
@given(st.integers(min_value=1, max_value=10 ** 6 // 4),
       st.sampled_from([1, 0]))
@settings(max_examples=60, deadline=None)
def test_imaginary_presentation_matches_reference_adjoin(k, r):
    try:
        D = qc.discriminant_from_value(r - 4 * k).value
    except ValueError:
        assume(False)
    _assert_matches_reference(qc.imaginary_presentation, D)
    counts = Counter()

    def counted(name):
        fn = getattr(qc, name)

        def call(*a):
            counts[name] += 1
            return fn(*a)
        return call

    def counted_prime_form(D, q, _prime_form=qc.prime_form):
        f = _prime_form(D, q)
        counts["prime forms"] += f is not None
        return f

    with mock.patch.object(qc, "compose", counted("compose")), \
            mock.patch.object(qc, "reduce_imaginary",
                              counted("reduce_imaginary")), \
            mock.patch.object(qc, "prime_form", counted_prime_form):
        pres = qc.imaginary_presentation(D)
    # one composition per class but the identity; reductions: the
    # principal form, every composition and every prime form the
    # staircase reads (a generator is canonical, so adjoin keeps it)
    assert counts["compose"] == pres.h - 1
    assert counts["reduce_imaginary"] == pres.h + counts["prime forms"]


@pytest.mark.parametrize("D", [-3, -4, -23, -3299, -15015, -255255])
def test_imaginary_presentation_matches_reference_anchors(D):
    _assert_matches_reference(qc.imaginary_presentation, D)


def test_bsgs_presentation_matches_reference_adjoin():
    for D in _fundamental_sample(random.Random(23), 4 * 10 ** 5 + 1,
                                 3 * 10 ** 6, 25):
        pres = _assert_matches_reference(
            lambda D: qc.class_number_bsgs(D)[1], D)
        assert pres.h == len(reduced_forms_imaginary(D))


def test_staircase_stopped_at_h_is_the_whole_walk():
    # one staircase over the prime forms in ascending order: stopped at the
    # exact h, or run over every prime form up to sqrt(|D|/3), it differs
    # only in where the walk stops, after the group is full
    Ds = _fundamental_sample(random.Random(23), 4 * 10 ** 5 + 1,
                             3 * 10 ** 6, 25)
    for D in Ds + [-3, -4, -23, -3299, -15015, -255255]:
        walk = qc.ClassGroupPresentation.staircase(
            reduce_imaginary(principal_form(D)), reduce_imaginary,
            qc._compose_imaginary,
            map(reduce_imaginary, qc._prime_forms(D, isqrt(-D // 3))))
        assert _snapshot(qc.imaginary_presentation(D)) == _snapshot(walk), D


def test_bsgs_presentation_composes_once_per_class():
    # one composition per class but the identity: no generator's order is
    # searched apart from the walk that adjoins it
    compose_calls = [0]

    def counted(f, g):
        compose_calls[0] += 1
        return compose(f, g)
    for D in _fundamental_sample(random.Random(31), 4 * 10 ** 5 + 1,
                                 3 * 10 ** 6, 25):
        compose_calls[0] = 0
        with mock.patch.object(qc, "compose", counted):
            pres = qc.class_number_bsgs(D)[1]
        assert compose_calls[0] == pres.h - 1, D


def test_narrow_presentation_matches_reference_adjoin():
    rng = random.Random(29)
    Ds = [5, 8, 12, 13, 21, 105, 229, 1365]
    while len(Ds) < 20:
        try:
            Ds.append(qc.discriminant_from_value(rng.randrange(5, 10 ** 5))
                      .value)
        except ValueError:
            pass
    for D in Ds:
        _assert_matches_reference(qc.narrow_presentation, D)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_units_top_matches_reference_adjoin(p):
    for D in (-3, -4, -7, -8, -15, -20, -23, -1155, 5, 8, 12, 13, 105):
        for n in (1, 2, 4):
            _assert_matches_reference(
                lambda *a: pram.ResidueUnits(*a)._top, D, p, n)
