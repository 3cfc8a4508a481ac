import random

import pytest

from epsclass import quadclass as qc
from epsclass.abgroup import AbelianGroupStructure
from epsclass.quadforms import reduced_forms_imaginary


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


def test_class_group_imaginary_examples():
    assert qc.class_group_imaginary(-23).divisors == (3,)
    assert qc.class_group_imaginary(-3).divisors == ()
    assert qc.class_group_imaginary(-47).divisors == (5,)
    assert str(qc.class_group_imaginary(qc.fundamental_discriminant(-15015))) \
        == "[12,2,2,2]"
    assert str(qc.class_group_imaginary(qc.fundamental_discriminant(-255255))) \
        == "[16,2,2,2,2]"


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


def test_narrow_vs_ordinary_factor():
    # h+ in {h, 2h}
    for m in (2, 3, 5, 10, 79, 105, 221, 229):
        d = qc.fundamental_discriminant(m)
        hp = qc.narrow_class_group_real(d).order
        h = qc.ordinary_class_group_real(d).order
        assert hp in (h, 2 * h), (m, hp, h)


def test_p_part():
    g = AbelianGroupStructure((39, 3, 3, 3, 3))
    assert qc.p_part(g, 3).divisors == (3, 3, 3, 3, 3)
    g = AbelianGroupStructure((12, 2, 2, 2))
    assert qc.p_part(g, 2).divisors == (4, 2, 2, 2)
    assert qc.p_part(g, 7).order == 1


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
    amb = qc.batch_ambiguous_counts(X)
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


def test_scan_shard_merge_deterministic():
    arrays = qc.scan_arrays(4000)
    whole = qc.scan_local_maxima(4000, "genus_normalized", eps=0.05,
                                 arrays=arrays)
    shards = [qc.scan_candidates(3, 1500, "genus_normalized", 0.05,
                                 arrays=arrays),
              qc.scan_candidates(1501, 4000, "genus_normalized", 0.05,
                                 arrays=arrays)]
    merged = qc.merge_maxima(shards, "genus_normalized")
    assert [(r.d, r.stat) for r in merged] == [(r.d, r.stat) for r in whole]


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
    rng = random.Random(4)
    checked = 0
    while checked < 15:
        d = rng.randrange(10 ** 5, 3 * 10 ** 5)
        try:
            disc = qc.fundamental_discriminant(-d if d % 4 == 3 else -d * 4
                                               if d % 4 in (1, 2) else 0)
        except ValueError:
            continue
        h_enum = len(reduced_forms_imaginary(disc.value))
        h_bsgs, _ = qc.class_number_bsgs(disc.value)
        assert h_bsgs == h_enum, disc.value
        checked += 1


def test_bsgs_structure_matches_enumeration():
    for d in (-998771, -424708):
        g1 = qc.class_group_imaginary(d, enum_cap=10 ** 4)
        g2 = qc.class_group_imaginary(d)
        assert g1.divisors == g2.divisors


def test_bsgs_cap():
    with pytest.raises(qc.ClassNumberCapError):
        qc.class_number_bsgs(-(10 ** 14 + 3))


def test_narrow_enumeration_cap():
    # m_10 of the odd-primorial family; enumerating would take ~2.5e10 steps
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
