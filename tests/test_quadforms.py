import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epsclass import pram, quadforms, zlin
from epsclass.quadclass import ENUM_CAP, scan_arrays
from epsclass.quadforms import (
    ENUM_INT64_LIMIT,
    QuadForm,
    TrackedIdeal,
    class_number_imaginary,
    compose,
    cycle_indefinite,
    principal_form,
    reduce_imaginary,
    reduce_indefinite,
    reduced_forms_imaginary,
)
from oracles import (QuadElt, is_reduced_indefinite, reduced_forms_indefinite,
                     walk_generator)


def _assert_matches_loop(D):
    # the count builds no form, but counts the same ones
    forms = _reduced_forms_loop(D)
    assert reduced_forms_imaginary(D) == forms, D
    assert class_number_imaginary(D) == len(forms), D


def _reduced_forms_loop(D):
    # the scalar enumeration: b by parity, then every a with a^2 <= M
    out = []
    absD = -D
    bmax = isqrt(absD // 3)
    for b in range(absD & 1, bmax + 1, 2):
        M = (b * b + absD) // 4
        a = max(b, 1)
        while a * a <= M:
            if M % a == 0:
                c = M // a
                if gcd(gcd(a, b), c) == 1:
                    out.append(QuadForm(a, b, c))
                    if 0 < b < a < c:
                        out.append(QuadForm(a, -b, c))
            a += 1
    return out


@given(st.integers(min_value=3, max_value=10 ** 7))
@settings(max_examples=40, deadline=None)
def test_reduced_forms_match_loop(d):
    assume(d % 4 in (0, 3))           # D = -d = 0, 1 mod 4, fundamental or not
    _assert_matches_loop(-d)


def test_reduced_forms_match_loop_cases():
    assert reduced_forms_imaginary(-3) == [QuadForm(1, 1, 1)]
    assert reduced_forms_imaginary(-4) == [QuadForm(1, 0, 1)]
    for d in range(3, 3001):
        if d % 4 in (0, 3):
            _assert_matches_loop(-d)
    # the squareful D, such as -206388 = -4 81 49 13 and -995328 =
    # -4 1024 243, reach the local root counts one b at a time; the last
    # has the most band pairs below the cap (61,415)
    for D in (-3, -4, -23, -84, -300, -1155, -4000, -7 * 4 * 81, -99995,
              -206388, -48048, -83160, -995328, -1455300, -999995,
              -(ENUM_CAP - 1), -(ENUM_CAP - 4)):
        _assert_matches_loop(D)


def test_class_number_memory_below_cap():
    # the count enumerates only the band above sqrt|D|/2 (1.95 MB traced);
    # every candidate pair at this |D| takes about 21 MB
    tracemalloc.start()
    try:
        class_number_imaginary(-(ENUM_CAP - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@given(st.integers(min_value=1, max_value=isqrt(ENUM_CAP) // 2),
       st.integers(min_value=-8, max_value=8))
@settings(max_examples=30, deadline=None)
def test_class_number_at_band_edge(a, k):
    # |D| = 4 a^2 + k puts a at or next to the last root-counted a
    d = 4 * a * a + k
    assume(d >= 3 and d % 4 in (0, 3))
    assert class_number_imaginary(-d) == len(_reduced_forms_loop(-d)), -d


def test_class_number_every_fundamental_disc():
    X = 3 * 10 ** 4
    h, fund = scan_arrays(X)[:2]
    for d in np.flatnonzero(fund).tolist():
        assert class_number_imaginary(-d) == h[d], -d


@pytest.mark.parametrize("D", [-5, -6, -1, -2, 0, 1, 5, -9, -10])
def test_non_discriminants_raise(D):
    # -5 used to count (1,1,1), of discriminant -3, and -6 (1,0,1)
    for enumerate_or_count in (reduced_forms_imaginary,
                               class_number_imaginary):
        with pytest.raises(ValueError):
            enumerate_or_count(D)


def test_isqrt_int64_exact_near_squares():
    # above 2^52 the float square root rounds across perfect squares
    rng = random.Random(9)
    roots = [1, 2, 3, 2 ** 26, 2 ** 26 + 1, isqrt(2 ** 62 // 3) - 1]
    roots += [rng.randrange(2 ** 26, isqrt(2 ** 62 // 3)) for _ in range(300)]
    M = sorted({max(0, r * r + k) for r in roots for k in (-2, -1, 0, 1, 2)})
    got = quadforms._isqrt_int64(np.array(M, dtype=np.int64)).tolist()
    assert got == [isqrt(m) for m in M]


def test_reduced_forms_int64_bound():
    # b^2 + |D| <= 4 |D| / 3 stays below 2^63 at the bound
    assert 4 * ENUM_INT64_LIMIT // 3 < 2 ** 63
    for enumerate_or_count in (reduced_forms_imaginary,
                               class_number_imaginary):
        with pytest.raises(ValueError):
            enumerate_or_count(-(ENUM_INT64_LIMIT + 4))


def test_quadform_semantics():
    rng = random.Random(3)
    forms = [QuadForm(rng.randrange(-5, 6), rng.randrange(-5, 6),
                      rng.randrange(-5, 6)) for _ in range(300)]
    assert sorted(forms) == sorted(forms, key=lambda f: (f.a, f.b, f.c))
    f, g = QuadForm(2, 1, 3), QuadForm(2, 1, 3)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != QuadForm(2, -1, 3) and f < QuadForm(2, 2, 1)
    assert repr(f) == "(2,1,3)" and str(QuadForm(1, -1, 6)) == "(1,-1,6)"
    with pytest.raises(AttributeError):
        f.a = 5
    assert f.inverse() == QuadForm(2, -1, 3)
    assert f.disc() == -23 and QuadForm(3, 7, -2).disc() == 73
    forms = reduced_forms_imaginary(-4 * 5 * 7 * 11)
    back = pickle.loads(pickle.dumps(forms))
    assert back == forms and all(type(h) is QuadForm for h in back)


def test_reduce_imaginary_basic():
    assert reduce_imaginary(QuadForm(1, 1, 6)) == QuadForm(1, 1, 6)
    assert reduce_imaginary(QuadForm(6, 1, 1)) == QuadForm(1, 1, 6)
    # brute-force oracle: reduced form is the unique one in the class list
    forms = reduced_forms_imaginary(-23)
    assert len(forms) == 3  # h(-23) = 3


def brute_reduced(D):
    return set(reduced_forms_imaginary(D))


def test_reduce_imaginary_lands_in_reduced_set():
    rng = random.Random(11)
    for _ in range(200):
        D = -rng.randrange(3, 400)
        if D % 4 not in (0, 1):
            continue
        red = brute_reduced(D)
        if not red:
            continue
        f = random.choice(sorted(red))
        # random SL2 scrambles
        a, b, c = f.a, f.b, f.c
        for _ in range(5):
            # (x,y) -> (x+ky, y): a -> a, b -> b+2ak, c -> ak^2+bk+c
            k = rng.randrange(-4, 5)
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
            # swap: (a,b,c) -> (c,-b,a)
            if rng.random() < 0.5:
                a, b, c = c, -b, a
        g = reduce_imaginary(QuadForm(a, b, c))
        assert g == f, (D, f, (a, b, c), g)


def test_compose_group_law_imaginary():
    # D = -23, h = 3 cyclic
    f = QuadForm(2, 1, 3)
    e = principal_form(-23)
    r = reduce_imaginary(compose(e, f))
    assert r == f
    sq = reduce_imaginary(compose(f, f))
    assert sq == QuadForm(2, -1, 3)
    cube = reduce_imaginary(compose(sq, f))
    assert cube == reduce_imaginary(e)
    inv = reduce_imaginary(compose(f, f.inverse()))
    assert inv == reduce_imaginary(e)


def test_compose_exhaustive_small_D():
    for D in (-23, -47, -71, -84, -120):
        forms = reduced_forms_imaginary(D)
        e = reduce_imaginary(principal_form(D))
        table = {}
        for f in forms:
            for g in forms:
                r = reduce_imaginary(compose(f, g))
                assert r in forms
                table[f, g] = r
        for f in forms:
            assert table[e, f] == f
            assert table[f, reduce_imaginary(f.inverse())] == e
        # commutativity + associativity (sampled)
        rng = random.Random(D)
        for _ in range(30):
            f, g, h = (rng.choice(forms) for _ in range(3))
            assert table[f, g] == table[g, f]
            assert reduce_imaginary(compose(table[f, g], h)) == \
                reduce_imaginary(compose(f, table[g, h]))


def test_indefinite_cycle_and_reduction():
    # D = 73: reduce (3,7,-2) onto its cycle
    f = QuadForm(3, 7, -2)
    assert f.disc() == 73
    r = reduce_indefinite(f)
    assert is_reduced_indefinite(r)
    cyc = cycle_indefinite(r)
    assert r in cyc
    assert all(is_reduced_indefinite(g) for g in cyc)
    # signs of a alternate along the cycle
    for g, h in zip(cyc, cyc[1:]):
        assert g.a * h.a < 0


def test_reduced_forms_indefinite_matches_cycles():
    for D in (40, 60, 73, 105, 316, 221):
        if D % 4 not in (0, 1):
            continue
        allf = set(reduced_forms_indefinite(D))
        assert all(is_reduced_indefinite(f) for f in allf)
        # cycles partition the set
        seen = set()
        ncyc = 0
        for f in sorted(allf):
            if f in seen:
                continue
            cyc = cycle_indefinite(f)
            assert set(cyc) <= allf
            assert not (set(cyc) & seen)
            seen |= set(cyc)
            ncyc += 1
        assert seen == allf


def lattice_of(tracked):
    """Lattice of gamma*ideal(form) as columns over Q, scaled to integers."""
    f, gam = tracked.form, tracked.gamma
    D = f.disc()
    cols = []
    for p, q in ((2 * f.a, 0), (-f.b, 1)):
        # ((p + q sqrt(D))/2) * (x + y sqrt(D)) = (P + Q sqrt(D))/2
        x, y = gam.x, gam.y
        P = Fraction(p) * x + Fraction(q) * y * D
        Q = Fraction(p) * y + Fraction(q) * x
        cols.append((P, Q))
    return cols


def lattices_equal(c1, c2):
    from math import lcm
    den = 1
    for col in c1 + c2:
        for v in col:
            den = lcm(den, v.denominator)
    m1 = [[int(v * den) for v in col] for col in c1]
    m2 = [[int(v * den) for v in col] for col in c2]
    return zlin.hnf_columns(m1) == zlin.hnf_columns(m2)


def test_tracked_rho_preserves_lattice():
    rng = random.Random(5)
    for D in (-23, -47, -84, 73, 316, 221):
        forms = (reduced_forms_imaginary(D) if D < 0
                 else reduced_forms_indefinite(D))
        for f in forms[:6]:
            if f.a < 0:
                continue
            t = TrackedIdeal(f, QuadElt.one(f.disc()))
            t2 = t.rho_step()
            assert lattices_equal(lattice_of(t), lattice_of(t2))
            t3 = t2.reduce()
            assert lattices_equal(lattice_of(t), lattice_of(t3))


def test_tracked_mul_matches_lattice_product():
    # check gamma bookkeeping: product of ideals = w * ideal(composition)
    rng = random.Random(6)
    for D in (-23, -47, -84, -120, 73, 316):
        forms = [f for f in (reduced_forms_imaginary(D) if D < 0
                             else reduced_forms_indefinite(D)) if f.a > 0]
        for _ in range(10):
            f, g = rng.choice(forms), rng.choice(forms)
            one = QuadElt.one(D)
            tf = TrackedIdeal(f, one)
            tg = TrackedIdeal(g, one)
            prod = tf.mul(tg)
            # explicit lattice product of the two ideals
            basis = []
            for p1, q1 in ((2 * f.a, 0), (-f.b, 1)):
                for p2, q2 in ((2 * g.a, 0), (-g.b, 1)):
                    # ((p1+q1 s)/2)((p2+q2 s)/2) = (P + Q s)/2 with
                    P = Fraction(p1 * p2 + q1 * q2 * D, 2)
                    Q = Fraction(p1 * q2 + q1 * p2, 2)
                    basis.append((P, Q))
            assert lattices_equal(basis, lattice_of(prod)), (D, f, g)


def test_principal_generator_imaginary():
    # D=-23: (2,1,3)^3 is principal; recover a generator
    f = QuadForm(2, 1, 3)
    t = TrackedIdeal(f, QuadElt.one(f.disc()))
    cube = t.mul(t).mul(t)
    gen = cube.principal_generator()
    # N(gen) = N(ideal) = 2^3
    assert gen.norm() == 8
    # gen must be an algebraic integer of the right lattice: 2*gen.x integral
    assert (2 * gen.x).denominator == 1 and (2 * gen.y).denominator == 1


def test_principal_generator_real():
    # D=40 (m=10): h=2, form (2, 4, -3)^2 principal.  TrackedIdeal refuses
    # a real ideal, whose generator is its reduced form's entry in pram's
    # table of the principal cycle: that generator and the reference
    # walk's both have the ideal's norm 4, and differ by a unit
    f = QuadForm(2, 4, -3)
    assert f.disc() == 40
    one = QuadElt.one(40)
    t = TrackedIdeal(f, one)
    sq = t.mul(t)
    with pytest.raises(ValueError, match="principal cycle"):
        sq.principal_generator()
    walked = walk_generator(sq)
    r = sq.reduce()
    a, b, c = r.form
    gen = r.gamma.div(pram.fundamental_unit(40, one)[1][abs(a), b, abs(c)])
    assert abs(walked.norm()) == abs(gen.norm()) == 4
    assert gen.div(walked).is_unit()
