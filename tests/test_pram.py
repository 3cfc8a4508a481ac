import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, log, prod
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from epsclass import arith, pram, quadclass, zlin
from epsclass.abgroup import AbelianGroupStructure, power
from epsclass.arith import kronecker
from epsclass.quadforms import (QuadForm, TrackedIdeal, cycle_indefinite,
                                principal_form, reduce_indefinite)
from epsclass.quadclass import isqrt_float
from oracles import (QuadElt, determinant, lattice_index,  # noqa: F401
                     log_kmax, order_modulo, ray_class_group_reference,
                     redei_kind, residue_dlog_reference, residue_generators,
                     walk_relation, whole_group, whole_groups)


# ------------------------------------------------------------ residue units

def brute_unit_elements(D, p, n):
    R = pram.ResidueRing(D, p, n)
    q = R.q
    return R, [(x, y) for x in range(q) for y in range(q)
               if R.is_unit((x, y))]


@pytest.mark.parametrize("D,p,n", [
    (-15, 2, 3), (-20, 2, 3), (-4, 2, 3), (-3, 3, 2), (-7, 2, 3),
    (-24, 3, 2), (5, 5, 2), (-11, 3, 2), (8, 2, 3), (13, 2, 3),
    (-40, 2, 4), (-84, 7, 2), (-20, 2, 1), (-8, 2, 2), (5, 2, 2),
    (-11, 5, 2), (-15, 5, 2), (-4, 2, 4),
])
def test_residue_units_against_brute_force(D, p, n):
    U = pram.ResidueUnits(D, p, n)
    R, els = brute_unit_elements(D, p, n)
    assert len(els) == U.order == lattice_index(list(U.rel_cols), U.ngens)
    gens = residue_generators(U)
    assert len(gens) == U.ngens
    V = _ring_smith(U)[1]
    random.seed(7)
    sample = els if len(els) <= 150 else random.sample(els, 80)
    for u in sample:
        # the layers' coordinates recombine to u, and dlog is those
        # coordinates taken through V
        v = residue_dlog_reference(U, u)
        assert _recombine(R, gens, v) == u
        assert U.dlog(u) == _through_v(U, V, v)
    # and over every unit dlog is a homomorphism onto the factors whose
    # kernel is {+-1}: each of the index images has ord(-1) units
    fibres = Counter(map(U.dlog, els))
    assert len(fibres) == U.index
    assert set(fibres.values()) == {U.order // U.index}
    assert fibres[U.dlog((R.q - 1, 0))] == U.order // U.index
    for u, w in zip(sample, sample[1:]):
        assert U.dlog(R.mul(u, w)) == _add(U, U.dlog(u), U.dlog(w))


def _ring_smith(U):
    """(d, forms): the Smith form of -1's image and the ring's relation
    columns, in the ring's order, over the layers' coordinates from
    residue_dlog_reference, with its transform V as V's columns."""
    minus = list(residue_dlog_reference(U, (U.ring.q - 1, 0)))
    return zlin.smith_diagonal([minus, *U.rel_cols], transform=True)


def _through_v(U, V, v):
    """v, over the layers' coordinates, taken through V, given as its
    columns, onto the ring's factors, its last columns (of full rank, the
    1s come first)."""
    lo = len(V) - len(U.factors)
    return tuple(sum(x * y for x, y in zip(v, w)) % f
                 for w, f in zip(V[lo:], U.factors))


def _add(U, a, b):
    return tuple((x + y) % f for x, y, f in zip(a, b, U.factors))


def _ring_structure(D, p, n):
    U = pram.units_mod(D, p, n)
    return str(AbelianGroupStructure.from_relation_matrix(U.rel_cols,
                                                          U.ngens))


def test_residue_units_known_structures():
    # split 2: (O/8)^x = (Z/8)^x x (Z/8)^x
    assert _ring_structure(-15, 2, 3) == "[2,2,2,2]"
    # ramified 3 at level 1: order (p-1)p = 6
    assert _ring_structure(-15, 3, 1) == "[6]"
    # inert 3 at level 1: the residue field F_9, cyclic of order 8
    assert _ring_structure(-4, 3, 1) == "[8]"


def _fundamental(lo, hi):
    out = []
    for D in range(lo, hi):
        try:
            out.append(quadclass.as_disc(D).value)
        except ValueError:
            pass
    return out


@settings(max_examples=60, deadline=None)
@given(D=st.sampled_from(_fundamental(-600, 600)),
       pn=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2),
                           (3, 3), (5, 1), (5, 2)]),
       k=st.integers(-30, 30), seed=st.integers(0, 10 ** 6))
def test_residue_units_depend_on_d_mod_4q(D, pn, k, seed):
    # (O/p^n)^x is the same group with the same generators and dlog for
    # every D in one class mod 4p^n, and the shared copy is one object
    p, n = pn
    q = p ** n
    shared = pram.units_mod(D, p, n)
    assert pram.units_mod(D + 4 * q * k, p, n) is shared
    R = pram.ResidueRing(D, p, n)
    rng = random.Random(seed)
    units = [u for u in ((rng.randrange(q), rng.randrange(q))
                         for _ in range(40)) if R.is_unit(u)][:12]
    for own in (pram.ResidueUnits(D, p, n),
                pram.ResidueUnits(D + 4 * q * k, p, n)):
        assert own._top.gens == shared._top.gens
        assert own.ngens == shared.ngens
        assert own.rel_cols == shared.rel_cols
        assert own.factors == shared.factors
        assert own._base_rows == shared._base_rows
        assert [own.dlog(u) for u in units] == [shared.dlog(u) for u in units]


HERMITE_RINGS = [
    (-15, 2, 3), (-4, 2, 3), (-3, 3, 2), (5, 5, 2), (8, 2, 1), (13, 2, 3),
    (-84, 7, 2), (-20, 2, 1), (-15, 5, 2), (229, 3, 4), (-4, 2, 64)]


@pytest.mark.parametrize("D,p,n", HERMITE_RINGS)
def test_ring_hermite_basis_holds_minus_one(D, p, n):
    # the factors ray_class_group starts from leave out -1: the Smith
    # form of the relation columns and -1's image has a unimodular
    # transform V that takes each of them into the lattice of its
    # divisors, the ring keeps the divisors above 1 and V's two base rows,
    # and their product times the order of -1 (2 unless q = 2) is the
    # group's order
    U = pram.units_mod(D, p, n)
    q = U.ring.q
    minus = list(residue_dlog_reference(U, (q - 1, 0)))
    d, V = _ring_smith(U)
    assert len(d) == len(V) == U.ngens and abs(determinant(V)) == 1
    for c in list(U.rel_cols) + [minus]:
        image = [sum(x * y for x, y in zip(c, w)) for w in V]
        assert all(y % e == 0 for y, e in zip(image, d)), (c, V)
    # -1's point is the top's first generator, lifted to -1 itself
    assert minus == ([1] + [0] * (U.ngens - 1) if U.pk > 2 else
                     [0] * U.ngens)
    lo = d.count(1)
    assert U.factors == tuple(d[lo:])
    assert U._base_rows == [[w[-2] for w in V[lo:]], [w[-1] for w in V[lo:]]]
    assert U.dlog((q - 1, 0)) == (0,) * len(U.factors)
    ord_minus = order_modulo(zlin.hnf_columns(list(U.rel_cols)), minus)
    assert ord_minus == (2 if q > 2 else 1)
    assert prod(U.factors) * ord_minus == U.index * ord_minus == U.order


def test_ring_build_takes_one_elimination(monkeypatch):
    # one Smith form per ring, of its relations and -1, with its
    # transform, and no Hermite form: the order check reads its divisors
    calls = {"hnf_columns": [], "smith_diagonal": []}

    def counted(name):
        f = getattr(zlin, name)

        def wrapper(*args, **kwargs):
            calls[name].append(kwargs)
            return f(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(zlin, name, counted(name))
    for D, p, n in HERMITE_RINGS:
        pram.ResidueUnits(D, p, n)
    assert calls == {"hnf_columns": [],
                     "smith_diagonal": [{"transform": True}] * len(
                         HERMITE_RINGS)}


@pytest.mark.parametrize("D,p,n,claim", [
    (D, p, n, claim)
    for D, p, n in [(-15, 2, 3), (-4, 2, 3), (-3, 3, 2), (-15, 3, 2),
                    (-11, 3, 2), (5, 5, 2)]
    for claim in ("split", "inert", "ramified")
    if claim != pram.splitting_type(D, p)])
def test_ring_order_check_refuses_a_wrong_order(monkeypatch, D, p, n, claim):
    # a splitting type the ring does not have sets a theoretical order its
    # relations do not meet: the factors' product times ord(-1) differs
    monkeypatch.setattr(pram, "splitting_type", lambda D, p: claim)
    with pytest.raises(pram.PramError, match="theoretical"):
        pram.ResidueUnits(D, p, n)


def _local_type(D, p):
    """The splitting type of p in D, a ramified p told apart by its
    uniformizer: omega or 2*omega - 1 for odd p, omega or 1 + sqrt(m) for
    p = 2."""
    st = pram.splitting_type(D, p)
    if st != "ramified":
        return st
    return st, pram._uniformizer(pram.ResidueRing(D, p, 1))


# fundamental D with 3 <= |D| < 600 by (p, local type, sign of D); p = 31
# has the largest top box, 961 points
LOCAL_PRIMES = (2, 3, 5, 7, 31)
LOCAL_CLASSES = {}
for _D in _fundamental(-600, 600):
    for _p in LOCAL_PRIMES:
        LOCAL_CLASSES.setdefault((_p, _local_type(_D, _p), _D > 0),
                                 []).append(_D)


def _recombine(R, gens, v):
    """prod_j gens[j]^v_j in O/p^n."""
    w = R.one
    for g, e in zip(gens, v):
        if e:
            w = R.mul(w, power(g if e > 0 else R.inv(g), abs(e), R.mul))
    return w


def test_local_classes_cover_every_type():
    # split, inert and two ramified classes for every p, each in both signs
    assert len(LOCAL_CLASSES) == 4 * len(LOCAL_PRIMES) * 2


def _class_id(key):
    p, t, positive = key
    t = t if isinstance(t, str) else f"ramified{t[1]}".replace(" ", "")
    return f"p{p}-{t}-{'pos' if positive else 'neg'}"


@pytest.mark.parametrize("key", sorted(LOCAL_CLASSES, key=repr),
                         ids=_class_id)
@settings(max_examples=6, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10 ** 9))
def test_dlog_matches_reference(key, data, seed):
    # the table lookup and the fixed-precision series give the dlog of the
    # per-call division and the exact-integer series, which recombines to
    # u, taken through V onto the factors, at the levels the scans and the
    # torsion reports use; and dlog adds as the units multiply
    p = key[0]
    D = data.draw(st.sampled_from(LOCAL_CLASSES[key]))
    rng = random.Random(seed)
    for n in sorted({1, 2, pram.tor_scan_level(3, 3, p), pram.top_level(p)}):
        U = pram.units_mod(D, p, n)
        q = U.ring.q
        V = _ring_smith(U)[1]
        units = [u for u in ((rng.randrange(q), rng.randrange(q))
                             for _ in range(16)) if U.ring.is_unit(u)]
        gens = residue_generators(U)
        for u in units + [U.ring.one, *gens]:
            v = residue_dlog_reference(U, u)
            assert _recombine(U.ring, gens, v) == u
            assert U.dlog(u) == _through_v(U, V, v), (D, p, n, u)
        for u, w in zip(units, units[1:]):
            assert U.dlog(U.ring.mul(u, w)) == \
                _add(U, U.dlog(u), U.dlog(w)), (D, p, n, u, w)


def _base_draws(p, rng):
    """(R, k, x) for every level n up to top_level(p) and every local class
    of p: three x in p^k O, the base of (O/p^n)^x, over the ring of a D
    drawn from that class."""
    for key, Ds in sorted(LOCAL_CLASSES.items(), key=repr):
        if key[0] != p:
            continue
        for n in range(1, pram.top_level(p) + 1):
            R = pram.ResidueRing(rng.choice(Ds), p, n)
            k = min(2 if p == 2 else 1, n)
            for _ in range(3):
                yield R, k, (rng.randrange(1, p ** 3) * p ** k,
                             rng.randrange(p ** 3) * p ** k)


@pytest.mark.parametrize("p", LOCAL_PRIMES)
def test_log_terms_past_the_cut_vanish(p):
    # every local class of p: x^m / p^v_p(m) = 0 mod p^n, on exact
    # integers, for each log term past the table's end, for x in p^k O
    for R, k, x in _base_draws(p, random.Random(p)):
        n = R.n
        _, log_terms = pram._series_terms(p, n, k)
        last = len(log_terms)
        kmax = log_kmax(n, k)
        assert last <= kmax
        xm = x
        for m in range(2, 2 * kmax + 1):
            xm = R.mul_exact(xm, x)
            if m > last:
                mod = p ** (n + arith.vp(m, p))
                assert xm[0] % mod == xm[1] % mod == 0, (R.D, p, n, m)


@pytest.mark.parametrize("D,p,n", [(-7, 2, 20), (-4, 2, 20), (-8, 2, 20),
                                   (-3, 2, 5), (-11, 3, 8), (-3, 3, 8),
                                   (-20, 5, 8), (-56, 7, 8)])
def test_series_refuses_x_outside_p_c0(D, p, n):
    # u = 2 is off the base 1 + p^k O (the old P^c0 base, whence the name):
    # x = u - 1 = 1 is a unit, and some log term has p^v_m not dividing x^m
    U = pram.units_mod(D, p, n)
    with pytest.raises(pram.PramError, match="lost exactness"):
        U._log((2, 0))


def test_dlog_refusals():
    U = pram.ResidueUnits(-7, 3, 4)
    with pytest.raises(pram.PramError, match="not a unit mod p"):
        U.dlog((3, 0))
    # a table entry whose word does not take its units into the base
    c, (v, _) = next((c, h) for c, h in U._table.items() if any(h[0]))
    U._table[c] = (v, U.ring.one)
    with pytest.raises(pram.PramError, match="not in the base layer"):
        U.dlog(c)


RAY_CASES = [(D, p, n)
             for D in (-3, -4, -7, -8, -11, -15, -20, -23, -24, -39, -40,
                       -56, -68, -84, -119, -219, -255, -420, -1155,
                       5, 8, 12, 13, 21, 105, 229, 1365)
             for p in (2, 3, 5, 7) for n in (1, 2, 3, 4, 6)]


def test_ray_class_group_cold_and_warm_cache(monkeypatch):
    assert len(RAY_CASES) == 540
    cold = []
    for D, p, n in RAY_CASES:
        pram._ring_units.cache_clear()
        cold.append(pram.ray_class_group(D, p, n))
    pram._ring_units.cache_clear()
    warm = [pram.ray_class_group(D, p, n) for D, p, n in RAY_CASES]
    assert warm == cold
    assert pram._ring_units.cache_info().hits > 0   # rings were shared
    # and each field's own (O/p^n)^x gives the same ray class groups
    monkeypatch.setattr(pram, "units_mod", pram.ResidueUnits)
    own = [pram.ray_class_group(D, p, n) for D, p, n in RAY_CASES]
    assert own == cold


# the local types of LOCAL_CLASSES at the primes of the scans and tables
RAY_CLASSES = sorted((k for k in LOCAL_CLASSES if k[0] <= 7), key=repr)


@pytest.mark.parametrize("key", RAY_CLASSES, ids=_class_id)
@seed(45)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_ray_class_group_matches_the_full_stack(key, data):
    # over the ring's cyclic factors, the ray class group is the one
    # stacked over all of (O/p^n)^x's coordinates and the class group's:
    # the ring's relation columns, -1, zeta or eps, and the class
    # relations, every image from the reference dlog
    p = key[0]
    D = data.draw(st.sampled_from(LOCAL_CLASSES[key]))
    for n in sorted({1, 2, 3, pram.tor_scan_level(3, 3, p)}):
        assert pram.ray_class_group(D, p, n) == \
            ray_class_group_reference(D, p, n), (D, p, n)


def test_ring_cache_is_bounded():
    info = pram._ring_units.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize("p,n", [(1, 8), (4, 3), (6, 2), (0, 2), (-2, 3),
                                 (2, 0)])
def test_residue_units_rejects_bad_modulus(p, n):
    # p = 1 once looped forever in a p-adic series: a p that is not
    # prime, or a level below 1, is refused before any ring is built
    with pytest.raises(ValueError):
        pram.ResidueUnits(-3, p, n)


@pytest.mark.parametrize("call,args", [
    # an error row "no representation coprime to 1 ..." instead of raising
    (pram.tor_scan, (20, 20, 1)),
    (pram.tor_scan, (20, 20, 2, 0)),
    # ZeroDivisionError in _coprime_rep
    (pram.ray_class_group, (-20, 0, 2)),
    (pram.ray_class_group, (-20, 2, -1)),
    # PramError from _coprime_rep
    (pram.program_vptor, (-20, 1, 5)),
    (pram.tor_report, (-20, 4)),
    (pram.reflection_check, (-20, 6)),
    (pram.rank_inequalities, (-20, 1)),
    # level 0 is the class data's group, not a ray class level
    (pram.ray_class_group, (-20, 2, 0)),
    # a ring's (O/p^k)^x box holds p^(2k) points and units_mod caches
    # 256 rings: p = 1009 took 14 s and 690 MB for one field
    (pram.units_mod, (-20, 37, 1)),
    (pram.ResidueUnits, (-20, 37, 1)),
    (pram.ray_class_group, (-20, 37, 2)),
    (pram.program_vptor, (-20, 37, 2)),
    (pram.tor_scan, (3, 40, 37)),
    # p > 31 refused on entry, before the class data are built
    (pram.tor_report, (-20, 37)),
    (pram.ktilde_index, (-20, 37)),
    (pram.reflection_check, (-20, 37)),
    (pram.rank_inequalities, (-20, 37)),
])
def test_pram_entry_points_reject_bad_modulus(monkeypatch, call, args):
    def no_build(*a):
        raise AssertionError("a class group or ring was built before "
                             "validation")

    monkeypatch.setattr(quadclass, "imaginary_presentation", no_build)
    monkeypatch.setattr(quadclass, "class_number_bsgs", no_build)
    monkeypatch.setattr(pram, "ResidueRing", no_build)
    monkeypatch.setattr(pram, "_ring_units", no_build)
    with pytest.raises(ValueError, match="prime p and n >= 1"):
        call(*args)


@pytest.mark.parametrize("call,args", [
    (pram.ResidueUnits, (-3, 2, 65)),
    (pram.units_mod, (-3, 3, 33)),
    (pram.ray_class_group, (-20, 2, 65)),
    (pram.ray_class_group, (229, 5, 17)),
    (pram.program_vptor, (-23, 2, 65)),
    (pram.program_vptor, (-23, 3, 10 ** 9)),
    (pram.tor_scan, (20, 40, 2, 65)),
    (pram.tor_scan, (20, 40, 7, 17)),
])
def test_pram_entry_points_reject_a_level_past_the_top(monkeypatch, call,
                                                        args):
    # the class data reach p^top_level(p) and no further: a level past it
    # is refused before any field, ring or class group is touched
    def no_field(*a):
        raise AssertionError("a field was computed before validation")

    for mod, name in ((pram, "as_disc"), (pram, "is_fundamental_neg"),
                      (pram, "ResidueRing"), (pram, "_ring_units"),
                      (quadclass, "imaginary_presentation"),
                      (quadclass, "class_number_bsgs"),
                      (pram, "real_presentation"),
                      (quadclass, "narrow_presentation")):
        monkeypatch.setattr(mod, name, no_field)
    with pytest.raises(ValueError, match=r"n <= top_level\(p\) = "):
        call(*args)


def test_splitting_type():
    assert pram.splitting_type(-15, 2) == "split"
    assert pram.splitting_type(-20, 2) == "ramified"
    assert pram.splitting_type(-15, 3) == "ramified"
    assert pram.splitting_type(-11, 3) == "split"
    assert pram.splitting_type(13, 2) == "inert"


# -------------------------------------------------------------------- units

def _from_quadelt(R, alpha):
    """The image of the exact alpha = x + y*sqrt(D) in R = O/p^n, as
    (x, y) = x + y*omega; PramError unless alpha is p-integral."""
    # sqrt(D) = 2*omega (D even) or 2*omega - 1
    if R.D % 4 == 0:
        c0, c1 = alpha.x, 2 * alpha.y
    else:
        c0, c1 = alpha.x - alpha.y, 2 * alpha.y
    out = []
    for c in (c0, c1):
        c = Fraction(c)
        if c.denominator % R.p == 0:
            raise pram.PramError(f"element not p-integral: {alpha}")
        out.append(c.numerator * pow(c.denominator, -1, R.q) % R.q)
    return tuple(out)


def _exact_unit(m):
    """(x, y, norm) with eps = (x + y*sqrt(m))/2 the fundamental unit > 1,
    from the cycle walk with the exact carrier."""
    D = quadclass.fundamental_discriminant(m).value
    g, _ = pram.fundamental_unit(D, QuadElt.one(D))
    # +-eps^(+-1) = +-(x +- y*sqrt(m))/2 for eps > 1, x, y > 0
    x, y = abs(2 * g.x), abs(2 * g.y if m % 4 == 1 else 4 * g.y)
    assert x.denominator == y.denominator == 1
    x, y = int(x), int(y)
    return x, y, (x * x - m * y * y) // 4


def _exact_units(D):
    """The global units of _ClassData.units, exactly: zeta (D = -3, -4) or
    +-eps^(+-1) (D > 0); -1 the ring's factors leave out."""
    units = []
    if D == -3:
        units.append(QuadElt(Fraction(1, 2), Fraction(1, 2), D))
    elif D == -4:
        units.append(QuadElt(Fraction(0), Fraction(1, 2), D))
    elif D > 0:
        units.append(pram.fundamental_unit(D, QuadElt.one(D))[0])
    return units


def test_fundamental_unit():
    assert _exact_unit(5) == (1, 1, -1)       # (1+sqrt5)/2
    assert _exact_unit(221) == (15, 1, 1)     # (15+sqrt221)/2
    assert _exact_unit(105) == (82, 8, 1)     # 41+4*sqrt(105)
    assert _exact_unit(2) == (2, 2, -1)       # 1+sqrt2
    assert _exact_unit(94) == (4286590, 442128, 1)


def _assert_unit_image(D, p, top):
    frame = pram._LocalFrame(D, p, top)
    exact, _ = pram.fundamental_unit(D, QuadElt.one(D))
    assert exact.norm() in (1, -1) and exact.y != 0, D
    assert pram.fundamental_unit(D, frame.one)[0].unit() == \
        _from_quadelt(frame.ring, exact), (D, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_images_on_small_real_fields(p):
    # the cycle walk's local image of eps is the exact walk's, on every
    # real field of torsion-small's range, at the top level tor_report uses
    for D in _fundamental(5, 2001):
        _assert_unit_image(D, p, pram.top_level(p))


@pytest.mark.parametrize("m", [1000003, 9999991])
def test_unit_images_at_large_regulators(m):
    # eps has 251 and 4,153 digits exactly
    _assert_unit_image(quadclass.fundamental_discriminant(m).value, 2,
                       pram.top_level(2))


# ------------------------------------------------ the principal cycle table

class _RhoSteps:
    """A gamma carrier that logs the rho steps taken on it."""

    def __init__(self, log):
        self.log = log

    def mul(self, other):
        return self

    div = mul

    def scale(self, n):
        return self

    def rho(self, b, c):
        self.log.append((b, c))
        return self


def _cycle(D, one):
    """The principal cycle's table of real D in the carrier of `one`,
    None for imaginary D: the last argument of pram._lift_relation."""
    return pram.fundamental_unit(D, one)[1] if D > 0 else None


def test_principal_cycle_table_covers_the_principal_ideals():
    # the walk passes one period of the principal ideals: its table holds
    # every reduced form of the principal cycle and of the negated one,
    # as (|a|, b, |c|), and it stops at the first |a| = 1 after the start
    for D in _fundamental(5, 5001):
        log = []
        _, table = pram.fundamental_unit(D, _RhoSteps(log))
        P = reduce_indefinite(principal_form(D))
        cyc = cycle_indefinite(P)
        neg = cycle_indefinite(QuadForm(-P.a, P.b, -P.c))
        assert set(table) == \
            {(abs(a), b, abs(c)) for a, b, c in cyc + neg}, D
        first = next((i for i, f in enumerate(cyc) if i and abs(f.a) == 1),
                     len(cyc))
        assert len(log) == first == len(table) <= len(cyc), D


@seed(44)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9), p=st.sampled_from([2, 3, 5]))
@example(seed=0, p=2)
def test_table_generators_match_the_reference_walk(seed, p):
    # every relation generator of a real field, as its product's gamma over
    # the table's, generates the ideal the reference walk's generator does
    # (a product one factor at a time, walked to the next |a| = 1): their
    # quotient is a unit
    rng = random.Random(seed)
    while True:
        try:
            D = quadclass.as_disc(rng.randrange(5, 10 ** 6 + 1)).value
            break
        except ValueError:
            pass
    cd = pram._class_data(D, p)
    forms = [pram._coprime_rep(f, p) for f in cd.pres.gens]
    one = QuadElt.one(D)
    cycle = _cycle(D, one)
    for col, _ in cd.relations:
        beta, den = pram._lift_relation(forms, col, one, cycle)
        walked, wden = walk_relation(forms, col, D)
        assert den == wden and beta.div(walked).is_unit(), (D, p, col)


def test_real_class_data_walk_the_principal_cycle_once(monkeypatch):
    # one gamma walk per real field, the unit's, and no principal_generator
    # call: every relation generator is one lookup in its table
    calls = {"fundamental_unit": 0, "principal_generator": 0}

    def counted(owner, name):
        f = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(pram, "fundamental_unit",
                        counted(pram, "fundamental_unit"))
    monkeypatch.setattr(TrackedIdeal, "principal_generator",
                        counted(TrackedIdeal, "principal_generator"))
    fields = [(D, p) for D in (5, 40, 229, 1365, 1969) for p in (2, 3)]
    for D, p in fields:
        pram._class_data.cache_clear()
        assert pram._class_data(D, p).relations
    assert calls == {"fundamental_unit": len(fields),
                     "principal_generator": 0}


# ----------------------------------------------------- class-group relations

def _exact_relations(cd):
    """The exact generator alpha of each relation of cd, prod I^c = (alpha):
    the relation products and the principal cycle's table run with the
    exact QuadElt carrier, the reference for the images pram takes from
    its local ones."""
    forms = [pram._coprime_rep(f, cd.p) for f in cd.pres.gens]
    one = QuadElt.one(cd.D)
    cycle = _cycle(cd.D, one)
    out = []
    for col, _ in cd.relations:
        beta, den = pram._lift_relation(forms, col, one, cycle)
        out.append(beta.scale(Fraction(1, den)))
    return forms, out


def _assert_images_exact(cd, levels):
    _, alphas = _exact_relations(cd)
    units = _exact_units(cd.D)
    assert len(cd.units) == len(units)
    for n in levels:
        R = pram.ResidueRing(cd.D, cd.p, n)
        for (col, (x, y)), alpha in zip(cd.relations, alphas):
            assert (x % R.q, y % R.q) == _from_quadelt(R, alpha), \
                (cd.D, cd.p, n, col)
        for (x, y), u in zip(cd.units, units):
            assert (x % R.q, y % R.q) == _from_quadelt(R, u), (cd.D, cd.p, n)


def _assert_relation_generator_norms(D, p):
    """prod_j I_j^{c_j} = (alpha) with N(I_j) = a_j, so |N(alpha)| is
    prod_j a_j^{c_j}; returns the columns, whose negative c_j pin the
    direction of the division."""
    cd = pram._class_data(D, p)
    forms, alphas = _exact_relations(cd)
    for (col, _), alpha in zip(cd.relations, alphas):
        assert abs(alpha.norm()) == \
            prod(Fraction(f.a) ** c for f, c in zip(forms, col)), col
    return [col for col, _ in cd.relations]


@pytest.mark.usefixtures("whole_group")
@pytest.mark.parametrize("D", [-56, -68, -119, -219, 229, 1365])
@pytest.mark.parametrize("p", [2, 3])
def test_relation_generator_norms(D, p):
    cols = _assert_relation_generator_norms(D, p)
    if D < 0:
        assert any(c < 0 for col in cols for c in col)


@pytest.mark.parametrize("D,p", [(-356, 2), (-1271, 2), (-1055, 3),
                                 (-16887, 2), (-21895, 2)])
def test_relation_generator_norms_on_sylow_data(D, p):
    # p-Sylow subgroups of order 4, 8, 9, 32 and 32 inside h = 12, 40, 36,
    # 96 and 96.  Cl_2 of -356 and -1271 is cyclic: one genus generator,
    # whose one column has no negative entry, so that entry is checked on
    # the whole group's columns
    cols = _assert_relation_generator_norms(D, p)
    if len(cols) == 1:
        with whole_groups():
            cols = _assert_relation_generator_norms(D, p)
    assert any(c < 0 for col in cols for c in col)


def test_relation_images_on_ray_grid():
    # the local walk's image of each relation generator is the exact
    # generator's, at every level of the grid and at the top level
    levels = sorted({n for _, _, n in RAY_CASES})
    for D, p in sorted({(D, p) for D, p, _ in RAY_CASES}):
        cd = pram._class_data(D, p)
        _assert_images_exact(cd, levels + [pram.top_level(p)])
    # every splitting type of every p of the grid
    for p in (2, 3, 5, 7):
        assert {pram.splitting_type(D, p) for D, q, _ in RAY_CASES
                if q == p} == {"split", "inert", "ramified"}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9), sign=st.sampled_from([-1, 1]),
       p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_relation_images_match_exact_lift(seed, sign, p, data):
    # the images mod p^top_level(p), reduced mod p^n
    n = data.draw(st.integers(1, pram.top_level(p)), label="n")
    rng = random.Random(seed)
    # above |D| = ENUM_CAP = 10^7 imaginary h comes from the L-series
    top = 12 * 10 ** 6 if sign < 0 else 2 * 10 ** 5
    while True:
        try:
            D = quadclass.as_disc(sign * rng.randrange(5, top)).value
            break
        except ValueError:
            pass
    _assert_images_exact(pram._class_data(D, p), [n])


class _DeepestC:
    """A gamma carrier that keeps only the largest v_p(c) of the rho
    steps its walk took: v_p(c) >= 2 takes _Gamma.rho's eps-power branch
    with e >= 2."""

    def __init__(self, p, top=0):
        self.p, self.top = p, top

    def mul(self, other):
        return _DeepestC(self.p, max(self.top, other.top))

    div = mul

    def scale(self, n):
        return self

    def rho(self, b, c):
        return _DeepestC(self.p, max(self.top, arith.vp(c, self.p)))


def _deepest_c(cd):
    """The largest v_p(c) over the walks of cd's relations and unit."""
    forms = [pram._coprime_rep(f, cd.p) for f in cd.pres.gens]
    one = _DeepestC(cd.p)
    cycle = _cycle(cd.D, one)
    walks = [pram._lift_relation(forms, col, one, cycle)[0]
             for col, _ in cd.relations]
    if cd.D > 0:
        walks.append(pram.fundamental_unit(cd.D, one)[0])
    return max((w.top for w in walks), default=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9), sign=st.sampled_from([-1, 1]),
       p=st.sampled_from([2, 3, 5]), deep=st.integers(0, 3),
       D=st.none())
@example(seed=0, sign=-1, p=2, deep=0, D=-3)
@example(seed=0, sign=-1, p=3, deep=0, D=-3)
@example(seed=0, sign=-1, p=5, deep=0, D=-3)
@example(seed=0, sign=-1, p=2, deep=0, D=-4)
@example(seed=0, sign=-1, p=3, deep=0, D=-4)
@example(seed=0, sign=-1, p=5, deep=0, D=-4)
def test_gamma_walks_match_exact_walks(seed, sign, p, deep, D):
    # the _Gamma walks' images of the unit and the relation generators
    # are the exact QuadElt walks' reduced mod p^n, for |D| <= 10^6; three
    # fields in four are drawn again until a walk meets a c with
    # v_p(c) >= 2, the eps-power branch of _Gamma.rho
    rng = random.Random(seed)
    tries = 200
    while D is None:
        try:
            D = quadclass.as_disc(sign * rng.randrange(5, 10 ** 6)).value
        except ValueError:
            continue
        tries -= 1
        if deep and tries and _deepest_c(pram._class_data(D, p)) < 2:
            D = None
    top = pram.top_level(p)
    _assert_images_exact(pram._class_data(D, p), [1 + seed % top, top])


def _assert_local_walk_rejects_non_principal_column(D, p):
    # the class of the generator is not trivial, so its column has no
    # generator to give an image of
    cd = pram._class_data(D, p)
    forms = [pram._coprime_rep(f, p) for f in cd.pres.gens]
    assert cd.pres.orders[0] > 1
    col = [1] + [0] * (len(forms) - 1)
    frame = pram._LocalFrame(D, p, 4)
    with pytest.raises(pram.PramError, match="not principal"):
        pram._lift_relation(forms, col, frame.one, _cycle(D, frame.one))
    # a real product missing from the principal cycle's table is refused
    # with the rho steps of its own reduction and no walk beyond them
    if D > 0:
        log = []
        one = _RhoSteps(log)
        cycle = _cycle(D, one)
        del log[:]
        TrackedIdeal(forms[0], one).reduce()
        steps = len(log)
        del log[:]
        with pytest.raises(pram.PramError, match="not principal"):
            pram._lift_relation(forms, col, one, cycle)
        assert len(log) == steps
    # nor is an element with a valuation above p an image
    with pytest.raises(pram.PramError, match="valuation"):
        frame.one.scale(p).unit()


@pytest.mark.usefixtures("whole_group")
@pytest.mark.parametrize("D,p", [(-23, 2), (-23, 5), (-23, 23), (229, 2),
                                 (229, 3), (229, 229), (40, 2)])
def test_local_walk_rejects_non_principal_column(D, p):
    # one of each splitting type, both signs
    _assert_local_walk_rejects_non_principal_column(D, p)


@pytest.mark.parametrize("D,p", [(-119, 2), (-339, 2), (-104, 2),
                                 (-143, 5), (-415, 5), (-287, 7)])
def test_local_walk_rejects_non_principal_sylow_column(D, p):
    # split, inert and ramified p, each with a p-Sylow subgroup that is
    # neither trivial nor the whole group
    _assert_local_walk_rejects_non_principal_column(D, p)


@pytest.mark.parametrize("D,p,moved", [
    # p = 2 split, 4 | s (pi = omega - 2) and s = 2 mod 4 (pi = omega)
    (17, 2, True), (33, 2, True), (-15, 2, True), (41, 2, False),
    (-7, 2, False),
    # odd p whose first root r has p^2 | N(omega - r)
    (-20, 3, True), (37, 3, True), (-35, 3, True), (-23, 3, False),
    # ramified: 1 + sqrt(m) and sqrt(m) above 2, 2*omega - 1 and omega
    # above an odd p
    (-4, 2, None), (12, 2, None), (-8, 2, None), (24, 2, None),
    (-15, 3, None), (-84, 3, None),
    # inert
    (5, 2, None), (-4, 3, None), (-23, 7, None),
])
def test_local_frame_generators(D, p, moved):
    frame = pram._LocalFrame(D, p, 8)
    R, st = frame.ring, pram.splitting_type(D, p)
    for pi in frame.pis:
        if st == "inert":
            assert R.norm(pi) == p * p
        else:
            assert arith.vp(R.norm(pi), p) == 1, pi
    if st == "split":
        # conjugates, over two primes: pi1^2 is not divisible by p
        (x, y), pi2 = frame.pis
        assert pi2 == (x + R.t * y, -y)
        assert any(c % p for c in R.mul_exact((x, y), (x, y)))
        assert (-x >= p) == moved
    # p * eps = prod pi^ram exactly, eps a unit
    pe = R.one
    for pi in frame.pis:
        for _ in range(frame.ram):
            pe = R.mul_exact(pe, pi)
    assert pe == (p * frame.eps[0], p * frame.eps[1])
    assert R.is_unit(frame.eps)
    assert frame.ram == (2 if st == "ramified" else 1)
    assert len(frame.pis) == (2 if st == "split" else 1)


# -------------------------------------------------- brute ray class oracle

def _hnf_product(L1, L2, D):
    """Product of two ideal lattices; coords (u, v) for (u + v*sqrt(D))/2."""
    def mul(a, b):
        # ((u1+v1 s)/2)((u2+v2 s)/2) = ((u1u2+v1v2 D)/2 + (u1v2+u2v1)/2 s)/2
        u = (a[0] * b[0] + a[1] * b[1] * D) // 2
        v = (a[0] * b[1] + a[1] * b[0]) // 2
        return [u, v]
    prods = [mul(c1, c2) for c1 in L1 for c2 in L2]
    return zlin.hnf_columns(prods)


def _member(H, v):
    return zlin.solve_lattice(H, list(v)) is not None


def test_ray_class_group_against_brute_force():
    # D = -15, modulus (4): relations from principal (alpha), alpha = +-1 mod 4,
    # over the prime ideals of odd norm <= 200
    D, p, n = -15, 2, 2
    O_cols = [[2, 0], [1, 1]]    # 1 and (1+sqrt D)/2
    primes = []
    for q in range(3, 200):
        if any(q % r == 0 for r in range(2, isqrt(q) + 1)):
            continue
        k = kronecker(D, q)
        if k == -1:
            continue
        for b in range(q + 1):
            if (b * b - D) % (4 * q) == 0:
                H = zlin.hnf_columns([[2 * q, 0], [-b, 1]])
                primes.append((q, b, H))
                if k == 1:
                    Hc = zlin.hnf_columns([[2 * q, 0], [b, 1]])
                    primes.append((q, -b, Hc))
                break
    idx = {(q, b): i for i, (q, b, _) in enumerate(primes)}
    pow_lat = {}
    for q, b, H in primes:
        cur = zlin.hnf_columns(O_cols)
        lats = []
        for _ in range(8):
            cur = _hnf_product(cur, H, D)
            lats.append(cur)
        pow_lat[(q, b)] = lats

    def valuation(q, b, vec):
        v = 0
        for H in pow_lat[(q, b)]:
            if _member(H, vec):
                v += 1
            else:
                break
        return v

    by_q = {}
    for q, b, _ in primes:
        by_q.setdefault(q, []).append(b)
    rels = []
    for x in range(-398, 399, 4):
        for y in range(-100, 101, 4):
            # alpha = (x + y sqrt D)/2 with alpha = +-1 mod 4O and odd norm
            if x % 4 != 2:
                continue
            nrm = (x * x - D * y * y) // 4
            if nrm <= 1 or nrm % 2 == 0:
                continue
            rem = nrm
            support = []
            for q in by_q:
                while rem % q == 0:
                    rem //= q
                    support.append(q)
            if rem != 1:
                continue
            vec = [0] * len(primes)
            for q in set(support):
                for b in by_q[q]:
                    vec[idx[(q, b)]] = valuation(q, b, (x, y))
            rels.append(vec)
    brute = pram.AbelianGroupStructure.from_relation_matrix(rels, len(primes))
    ray = pram.ray_class_group(D, p, n)
    assert brute.divisors == ray.divisors
    assert ray.order == 4


# ------------------------------------------------------------------ torsion

def test_tor_report_family_anchors():
    rep = pram.tor_report(-15, 2)
    assert str(rep.tor_structure) == "[2]" and rep.w_order == 2
    assert abs(rep.c_tilde - 0.5119160496196) < 1e-12

    rep = pram.tor_report(105, 2)
    assert str(rep.tor_structure) == "[2,2]"

    rep = pram.tor_report(221, 2)
    assert str(rep.tor_structure) == "[16]"
    assert abs(rep.c_tilde - 1.0272342185833848) < 1e-12

    rep = pram.tor_report(-1155, 2)
    assert str(rep.tor_structure) == "[2,2,2]"

    rep = pram.tor_report(-15015, 2)
    assert str(rep.tor_structure) == "[2,2,2,2]"


def test_tor_report_large_anchors():
    rep = pram.tor_report(-101091716, 2)
    assert str(rep.tor_structure) == "[1024,4,2]"
    assert rep.vp == 13 and rep.w_order == 2
    assert pram.ktilde_index(-101091716, 2) == 2

    rep = pram.tor_report(-136159455, 3)
    assert str(rep.tor_structure) == "[2187,3]"
    assert rep.w_order == 3


def test_family_radicands():
    assert list(pram.family_radicands(5)) == [-3, -15, 105, -1155, -15015]


def test_w_group():
    assert pram.w_group(-15, 2) == 2      # m = -15 = 1 mod 8
    assert pram.w_group(-20, 2) == 1
    assert pram.w_group(221, 2) == 1      # 221 = 5 mod 8
    assert pram.w_group(-101091716, 2) == 2
    assert pram.w_group(-3, 3) == 1       # the exceptional field
    assert pram.w_group(-4, 2) == 1       # Q(i) holds mu_4 globally
    assert pram.w_group(-136159455, 3) == 3
    assert pram.w_group(-15, 5) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_ktilde_index_divides_the_p_class_number(p):
    # [K~ cap H : K] divides #Cl_p; Q(i) at p = 2 read 2 against #Cl_2 = 1
    # while w_group(-4, 2) counted mu_4 as not global
    for d in range(3, 500):
        if pram.is_fundamental_neg(d):
            clp = pram._class_data(-d, p).structure.p_part(p).order
            assert clp % pram.ktilde_index(-d, p) == 0, (-d, p)


# -------------------------------------------------------------------- scans

def test_program_vptor_matches_printed_rows():
    rows = [(-1000011, 3, 0.301029755983435929933445793),
            (-1000020, 3, 0.3010295598834164958938994188),
            (-1000036, 4, 0.4013722816881976053812061427),
            (-1000132, 5, 0.5017118661610285687682449315),
            (-1347524, 10, 0.982227596578129040877631145)]
    for D, want_v, want_cp in rows:
        v = pram.program_vptor(D, 2, 20)
        assert v == want_v, D
        cp = v * log(2) / log(isqrt_float(-D))
        assert abs(cp - want_cp) < 1e-12, D


def test_tor_scan_emission():
    recs = pram.tor_scan(10 ** 6, 1000200, 2)
    assert [(r.D, r.vptor) for r in recs] == \
        [(-1000011, 3), (-1000020, 3), (-1000036, 4), (-1000132, 5)]
    assert not any(r.error for r in recs)


def test_tor_scan_below_three():
    # is_fundamental_neg(-5) used to return the real discriminant 5
    for d in range(-20, 3):
        assert pram.is_fundamental_neg(d) is None, d
    assert pram.tor_scan(-20, 100, 2) == pram.tor_scan(3, 100, 2) != []


def test_merge_tor_maxima():
    a = pram.tor_scan(10 ** 6, 1000100, 2)
    b = pram.tor_scan(1000101, 1000200, 2)
    merged = pram.merge_tor_maxima([a, b])
    assert [(r.D, r.vptor) for r in merged] == \
        [(r.D, r.vptor) for r in pram.tor_scan(10 ** 6, 1000200, 2)]


def test_tor_scan_error_rows_above_the_class_number_budget():
    # each fundamental field above SERIES_CAP = 10^13 is one error row,
    # caught in _tor_records, with vptor 0 and cp 0.0
    recs = pram.tor_scan(10 ** 13, 10 ** 13 + 12, 2)
    assert [r.D for r in recs] == [-(10 ** 13 + i) for i in (3, 4, 7, 11)]
    for r in recs:
        assert (r.vptor, r.cp) == (0, 0.0)
        assert "exceeds the class-number budget" in r.error


def test_tor_scan_refuses_a_window_above_its_budget(monkeypatch):
    # at the budget the window runs; one |D| more is refused before any
    # field, counted from |D| = 3 however far below it lo starts
    monkeypatch.setattr(pram, "TOR_SCAN_SPAN", 98)
    assert pram.tor_scan(-50, 100, 2) == pram.tor_scan(3, 100, 2) != []

    def no_field(d):
        raise AssertionError(f"|D| = {d} was read")
    monkeypatch.setattr(pram, "is_fundamental_neg", no_field)
    for lo, hi in ((3, 101), (-50, 101), (10 ** 13, 10 ** 13 + 98)):
        with pytest.raises(quadclass.ClassNumberCapError, match="99 values"):
            pram.tor_scan(lo, hi, 2)
    monkeypatch.undo()
    with pytest.raises(quadclass.ClassNumberCapError,
                       match="budget 2000000"):
        pram.tor_scan(10 ** 6, 3 * 10 ** 6, 2)


def test_merge_tor_maxima_passes_error_rows_through():
    # an error row between two records is kept, and the records after it
    # are still judged against the maximum before it
    rec = pram.TorRecord
    err = rec(-23, -23, 0, 0.0, "over budget")
    shards = [[rec(-7, -7, 2, 0.5)],
              [err, rec(-11, -11, 1, 0.2), rec(-15, -15, 2, 0.3),
               rec(-19, -19, 3, 0.4)]]
    assert list(pram.merge_tor_maxima(shards)) == [
        rec(-7, -7, 2, 0.5), err, rec(-15, -15, 2, 0.3), rec(-19, -19, 3, 0.4)]


# ------------------------------------------------------ reflection and ranks

@pytest.mark.parametrize("call", [
    lambda: pram.ktilde_index(5, 2),
    lambda: pram.s_class_group(5, 2),
    lambda: pram.tor_family(3, 1),
], ids=["ktilde_index", "s_class_group", "tor_family"])
def test_argument_checks_raise_value_error(call):
    # they were asserts, gone under python -O: s_class_group(5, 2) then
    # returned a group for a real field
    with pytest.raises(ValueError):
        call()


def test_s_class_group():
    s = pram.s_class_group(-15, 2)
    assert s.s_count == 2 and s.structure.order == 1
    s = pram.s_class_group(-84, 2)    # 2 ramified
    assert s.s_count == 1
    # trivial, where -84's class data at p = 2 once gave it the group [2]
    assert pram.s_class_group(-84, 3).structure.order == 1


def test_reflection_identity_sample():
    for d in range(3, 700):
        if pram.is_fundamental_neg(d):
            assert pram.reflection_check(-d, 2), -d


def test_rank_inequalities():
    for D, p in [(-15, 2), (-255, 2), (-420, 2), (229, 3), (-1155, 2),
                 (105, 2)]:
        r = pram.rank_inequalities(D, p)
        assert r.upper_ok and r.lower_ok, (D, p)
        # Cl is the narrow group for real D: for D = 105 its 2-rank is 2,
        # the ordinary group's 1
        cl = quadclass.class_group_imaginary(D) if D < 0 else \
            quadclass.narrow_class_group_real(D)
        assert r.rk_cl == cl.p_rank(p), (D, p)


_BUILDERS = ("imaginary_presentation", "genus_presentation",
             "class_number_bsgs", "narrow_presentation")


@pytest.fixture
def builds(monkeypatch):
    """Names of the presentation builders called, in call order."""
    calls = []
    for name in _BUILDERS:
        def wrapped(*args, _build=getattr(quadclass, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)
        for mod in (quadclass, pram):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, wrapped)
    return calls


def _ray_class_group_0(D, p):
    # the ray class group of modulus p^0 = 1: the class data's group
    return pram._class_data(D, p).structure


def _class_group(D, p):
    return quadclass.class_group_imaginary(D)


def _program_vptor_4(D, p):
    return pram.program_vptor(D, p, 4)


@pytest.mark.parametrize("call,D,builder", [
    # an even h: Cl_2 on its genus basis; h(-84) = 4 = 2^(3 - 1), Delta =
    # 0, so Redei's 4-rank 0 takes the ramified prime forms with no h
    (pram.reflection_check, -84, "genus_presentation"),
    (pram.rank_inequalities, -84, "genus_presentation"),
    # a real field of narrow 4-rank 0 (105 = 3 * 5 * 7, and the prime 229)
    # takes Cl+_2 = Cl+[2] on ramified prime forms at p = 2; 136 and 145
    # (narrow 4-rank 1, Cl+ = [4] for both) keep the narrow staircase
    (pram.rank_inequalities, 105, "genus_presentation"),
    (pram.rank_inequalities, 229, "genus_presentation"),
    (pram.rank_inequalities, 136, "narrow_presentation"),
    (pram.rank_inequalities, 145, "narrow_presentation"),
    (pram.ktilde_index, -84, "genus_presentation"),
    # one builder on both sides of ENUM_CAP = 10^7, which chooses only
    # how h is found; h(-10000004) = 1648 = 2^4 * 103: one Sylow presented.
    # Delta = 1, 0 and 0 for -400003, -9999995 and -10000003, 3, 1 and 1
    # for -9999903, -9999915 and -10000011: with and without h
    (pram.ktilde_index, -400003, "genus_presentation"),
    (pram.ktilde_index, -9999995, "genus_presentation"),
    (pram.ktilde_index, -10000003, "genus_presentation"),
    (pram.ktilde_index, -9999903, "genus_presentation"),
    (pram.ktilde_index, -9999915, "genus_presentation"),
    (pram.ktilde_index, -10000011, "genus_presentation"),
    (_class_group, -10000004, "imaginary_presentation"),
    # h(-23) = 3 is odd, so omega = 1: Redei's 4-rank is 0 and the
    # trivial Cl_2 = Cl[2] is the genus route's, with no h and no staircase
    (pram.ktilde_index, -23, "genus_presentation"),
    (_program_vptor_4, -23, "genus_presentation"),
    (pram.tor_report, 229, "genus_presentation"),
    (_ray_class_group_0, 229, "genus_presentation"),
    (pram.tor_report, 136, "narrow_presentation"),
    (_ray_class_group_0, 145, "narrow_presentation"),
])
def test_one_presentation_build_per_call(builds, call, D, builder):
    call(D, 2)
    assert builds == [builder]


def test_class_data_built_once_per_field(builds):
    # tor_report and s_class_group share the field's one build; a second
    # field replaces it in the one-entry cache
    pram.tor_report(-84, 2)
    pram.s_class_group(-84, 2)
    assert builds == ["genus_presentation"]
    pram.s_class_group(-1155, 2)
    pram.tor_report(-1155, 2)
    assert builds == ["genus_presentation"] * 2
    # over a counted h too (Delta = 3; -84 and -1155 have Delta = 0)
    pram.s_class_group(-1000036, 2)
    pram.tor_report(-1000036, 2)
    assert builds == ["genus_presentation"] * 3
    # and at an odd p, over the staircase
    pram.tor_report(-84, 3)
    pram.s_class_group(-84, 3)
    assert builds == ["genus_presentation"] * 3 + ["imaginary_presentation"]
    assert pram._class_data.cache_info().maxsize == 1


@pytest.mark.parametrize("D,sylows", [(-23, 0), (-15015, 1), (-9999995, 1),
                                      (-10000003, 0), (-10000047, 2)])
def test_class_group_presents_each_sylow_of_square_order(builds, D, sylows):
    # h = 3, 96 = 2^5 * 3 and 936 = 2^3 * 3^2 * 13 below ENUM_CAP, 706 =
    # 2 * 353 and 1512 = 2^3 * 3^3 * 7 above it: one presentation per odd
    # prime p with p^2 | h, one of 2Cl_2 when Delta = v_2(h) - (omega - 1)
    # > 0 (Delta = 1, 0, 0, 1 for the four with h even), and none of the
    # whole group
    quadclass.class_group_imaginary(D)
    assert builds == ["imaginary_presentation"] * sylows


def test_ray_class_group_level_zero_is_ordinary():
    # modulus p^0 = 1: the class data's group
    real = (5, 12, 105, 136, 145, 221, 229, 321, 473, 1032)
    with whole_groups():
        for D in real:
            assert pram._class_data(D, 2).structure == \
                quadclass.ordinary_class_group_real(D), D
    # at p = 2 a real field of narrow 4-rank 0 holds the image of Cl+_2
    # alone: h(229) = 3, h(321) = 3 and h(473) = 3
    for D in real:
        ordinary = quadclass.ordinary_class_group_real(D)
        if quadclass.redei_4rank(D) == 0:
            ordinary = ordinary.p_part(2)
        assert pram._class_data(D, 2).structure == ordinary, D
    assert pram._class_data(229, 2).structure.order == 1
    for D in (-84, -1155):
        assert pram._class_data(D, 2).structure == \
            quadclass.class_group_imaginary(D), D
    # imaginary class data hold the p-Sylow subgroup alone: h(-119) = 10
    assert pram._class_data(-119, 2).structure == \
        quadclass.class_group_imaginary(-119).p_part(2)


@pytest.fixture
def eliminations(monkeypatch):
    """zlin.smith_diagonal and zlin.hnf_columns calls, in call order, a
    Hermite form inside a Smith form included."""
    calls = []

    def counted(name):
        real = getattr(zlin, name)

        def wrapped(vectors, **kwargs):
            calls.append(name)
            return real(vectors, **kwargs)
        monkeypatch.setattr(zlin, name, wrapped)
    counted("smith_diagonal")
    counted("hnf_columns")
    return calls


@pytest.mark.parametrize("D,p,units", [
    (-1155, 2, 0), (-1000011, 2, 0), (-1055, 3, 0), (-23, 5, 0),
    (-3, 3, 1), (-4, 2, 1), (221, 2, 1), (229, 3, 1)])
def test_ray_class_group_eliminates_once_per_level(eliminations, D, p,
                                                   units):
    # with its ring built, a field puts the ring's cyclic factors (which
    # leave out -1), its units beyond -1 (zeta or eps, if any) and its
    # class relations into one Smith form per level, and takes no Hermite
    # form: zeta's or eps's order over the factors needs none.  A field
    # with neither, (-23, 5) here (Cl(-23) has order 3), takes none: its
    # group is the ring's chain
    cd = pram._class_data(D, p)
    assert len(cd.units) == units
    alone = not (cd.units or cd.relations)
    assert alone == ((D, p) == (-23, 5))
    for n in (1, 2, 3, pram.top_level(p)):
        want = pram.ray_class_group(D, p, n)
        del eliminations[:]
        assert pram.ray_class_group(D, p, n) == want
        assert eliminations == ([] if alone else ["smith_diagonal"])
        if alone:
            assert want.divisors == pram.units_mod(D, p, n).factors[::-1]


def test_prime_over_forms():
    for D, p in [(-15, 2), (-20, 2), (-15, 3), (-11, 3), (-84, 7), (-7, 2)]:
        f = quadclass.prime_form(D, p)
        if f is not None:
            assert f.a == p and f.disc() == D
    assert quadclass.prime_form(13, 2) is None
    # split q = 2 (D = 1 mod 8), q = 2 ramified with m even and odd, odd
    # ramified q with D even and odd, for both signs of D
    for D, p in [(17, 2), (-24, 2), (8, 2), (12, 2), (-84, 3), (-15, 5),
                 (-23, 23), (21, 7), (60, 5)]:
        f = quadclass.prime_form(D, p)
        assert f.a == p and f.disc() == D and gcd(*f) == 1, (D, p)


@pytest.fixture
def factor_calls(monkeypatch):
    """Arguments of every arith.factor call, from any epsclass module."""
    calls = []
    real = arith.factor

    def wrapped(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.startswith("epsclass") and getattr(mod, "factor", None) is real:
            monkeypatch.setattr(mod, "factor", wrapped)
    return calls


@pytest.mark.parametrize("call,D", [
    (pram.tor_report, -1155),
    (pram.tor_report, 221),
    (pram.reflection_check, -84),
    (pram.rank_inequalities, 229),
    (pram.ktilde_index, -84),
    # above ENUM_CAP too: the L-series takes the validated Discriminant
    (_class_group, -10000003),
    (_program_vptor_4, -10000003),
    # Cl_2 on a genus basis reads the Discriminant's prime discriminants
    # (-1000036 = -4 * 29 * 37 * 233, Delta = 3)
    (_program_vptor_4, -1000036),
    (pram.s_class_group, -1000036),
])
def test_one_factorization_per_call(factor_calls, call, D):
    # the Discriminant validated on entry is passed on, never rebuilt
    call(D, 2)
    assert factor_calls == [abs(D) // (4 if D % 4 == 0 else 1)]


@pytest.fixture
def reduce_calls(monkeypatch):
    """A one-entry list counting TrackedIdeal.reduce calls."""
    n = [0]
    real = TrackedIdeal.reduce

    def counted(self):
        n[0] += 1
        return real(self)
    monkeypatch.setattr(TrackedIdeal, "reduce", counted)
    return n


def _pow_reductions(e):
    # the entry, each square and each product
    return 1 + (e.bit_length() - 1) + (bin(e).count("1") - 1)


def _ambiguous_square(forms, col):
    """Whether col is +-2 e_j on a form with a | b, I = conj(I): I^2 =
    (a), whose generator _lift_relation takes with no walk."""
    nonzero = [(f, c) for f, c in zip(forms, col) if c]
    return len(nonzero) == 1 and abs(nonzero[0][1]) == 2 and \
        nonzero[0][0].b % nonzero[0][0].a == 0


@pytest.mark.parametrize("D", [-1000036, -1000011, -1155, 221])
def test_relation_walk_reduces_each_form_once(reduce_calls, D):
    # each power reduces its entry, each square and each product once,
    # every product of powers once, and for imaginary D principal_generator
    # the end once more; a real product is looked up in the principal
    # cycle's table as it is.  A square of an ambiguous ideal reduces
    # nothing: Cl_2(-1155) = Cl[2] has three, on ramified prime forms
    cd = pram._class_data(D, 2)
    forms = [pram._coprime_rep(f, 2) for f in cd.pres.gens]
    one = QuadElt.one(D)
    cycle = _cycle(D, one)
    seen = 0
    for col, _ in cd.relations:
        nonzero = [abs(c) for c in col if c]
        reduce_calls[0] = 0
        pram._lift_relation(forms, col, one, cycle)
        want = sum(map(_pow_reductions, nonzero)) + len(nonzero) - 1
        if _ambiguous_square(forms, col):
            seen += 1
            want = 0
        elif nonzero:
            want += D < 0
        assert reduce_calls[0] == want, (D, col)
    assert seen == (3 if D == -1155 else 0), D


@pytest.fixture
def walks(monkeypatch):
    """The column of every relation walk, in call order."""
    calls = []
    real = pram._lift_relation

    def wrapped(forms, col, one, cycle):
        calls.append(list(col))
        return real(forms, col, one, cycle)
    monkeypatch.setattr(pram, "_lift_relation", wrapped)
    return calls


@pytest.fixture
def levels(monkeypatch):
    """The level n of every ray_class_group call, in call order."""
    calls = []
    real = pram.ray_class_group

    def wrapped(D, p, n):
        calls.append(n)
        return real(D, p, n)
    monkeypatch.setattr(pram, "ray_class_group", wrapped)
    return calls


@pytest.mark.parametrize("D", [-1155, 221])
def test_tor_report_walks_each_relation_once(walks, levels, monkeypatch, D):
    # the cache is keyed by the Discriminant the entry points pass
    want = [col for col, _ in
            pram._class_data(quadclass.as_disc(D), 2).relations]
    assert want and walks == want
    # the field's class data are cached: no relation is walked again
    del walks[:]
    rep = pram.tor_report(D, 2)
    assert levels == list(range(2, rep.stabilized_level + 1))
    assert walks == []
    # a torsion that never repeats, from an empty cache: every level up to
    # the top, once each, and still one walk per relation
    pram._class_data.cache_clear()
    del levels[:]
    seen = iter(range(10 ** 6))
    monkeypatch.setattr(pram, "_drop_lines", lambda st, p, r: next(seen))
    with pytest.raises(pram.PramError, match="did not stabilize"):
        pram.tor_report(D, 2)
    assert levels == list(range(2, 65))
    assert walks == want


def test_tor_scan_holds_only_the_rows_it_keeps(monkeypatch):
    # with every vptor 0 no row is kept, so the peak does not grow with the
    # range (a list of every field grows it about 4x from k = 2000 to 8000)
    monkeypatch.setattr(pram, "program_vptor", lambda D, p, n: 0)

    def peak(k):
        tracemalloc.start()
        try:
            assert pram.tor_scan(10 ** 6, 10 ** 6 + k, 3) == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak(100)      # warm: imports and the first sieve are not the scan's
    assert peak(8000) <= 1.1 * peak(2000)


def test_tor_scan_validates_each_field_once(factor_calls):
    # 76 candidates pass the mod-4 screen and are factored once each; the
    # 61 fundamental ones reuse that Discriminant, and the enumeration
    # that builds their class groups factors nothing
    recs = pram.tor_scan(10 ** 6, 1000200, 2)
    assert len(recs) == 4
    assert len(factor_calls) == 76


# ------------------------------------- Delta = 0 at p = 2, with no h

def _delta_zero_outputs(d):
    """What pram gives for d at p = 2 from its class data, each from a
    fresh build: the ray class groups at n = 1, ..., 6 and 20, tor_report,
    s_class_group, reflection_check, rank_inequalities and ktilde_index."""
    pram._class_data.cache_clear()
    return ([pram.ray_class_group(d, 2, n) for n in (*range(1, 7), 20)],
            pram.tor_report(d, 2), pram.s_class_group(d, 2),
            pram.reflection_check(d, 2), pram.rank_inequalities(d, 2),
            pram.ktilde_index(d, 2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9),
       kind=st.sampled_from(["odd", "8|D", "4 mod 8", "omega=1"]))
@example(seed=0, kind="odd")
@example(seed=0, kind="8|D")
@example(seed=0, kind="4 mod 8")
@example(seed=0, kind="omega=1")
def test_delta_zero_route_matches_the_h_route(seed, kind):
    # a seeded field of Redei 4-rank 0 (Delta = 0) of each kind, |D| < 2 *
    # 10^6: every output from Cl_2 = Cl[2] on ramified prime forms, with no
    # h, equals the one from the counted h and the genus (or, for omega =
    # 1, the staircase) presentation, which a nonzero 4-rank forces
    rng = random.Random(seed)
    while True:
        d = pram.is_fundamental_neg(rng.randrange(3, 2 * 10 ** 6))
        if d is not None and redei_kind(d) == kind and \
                quadclass.redei_4rank(d) == 0:
            break
    got = _delta_zero_outputs(d)
    assert pram._class_data(d, 2).k is None, d.value
    with mock.patch.object(quadclass, "redei_4rank", lambda d: 1):
        want = _delta_zero_outputs(d)
        assert pram._class_data(d, 2).k is not None, d.value
    assert got == want, d.value


@pytest.mark.parametrize("D,walked", [
    (-1155, 0), (-1000027, 0),      # D odd
    (-1000104, 0), (-24, 0),        # 8 | D
    (-10000003, 0),                 # above ENUM_CAP: no L-series either
    (-23, 0), (-4, 0),              # omega = 1: no relation at all
    (-1000164, 1), (-84, 1),        # D = 4 mod 8: P_2's column alone
])
def test_delta_zero_class_data_count_no_h(monkeypatch, reduce_calls, D,
                                          walked):
    # Redei's 4-rank 0: no class number, by count or L-series, and no walk
    # but the one relation of the prime above 2 when D = 4 mod 8, whose
    # form _coprime_rep moves off a | b; the others are I^2 = (q)
    def no_h(*args):
        raise AssertionError(f"h counted for {args}")
    monkeypatch.setattr(quadclass, "_class_number", no_h)
    monkeypatch.setattr(quadclass, "class_number_imaginary", no_h)
    per_column = []
    real = pram._lift_relation

    def lift(forms, col, one, cycle):
        before = reduce_calls[0]
        out = real(forms, col, one, cycle)
        per_column.append(reduce_calls[0] - before)
        return out
    monkeypatch.setattr(pram, "_lift_relation", lift)
    d = quadclass.as_disc(D)
    cd = pram._class_data(d, 2)
    assert cd.k is None
    assert len(per_column) == len(cd.relations) == d.ramified_count - 1
    assert sum(n > 0 for n in per_column) == walked
    assert reduce_calls[0] == sum(per_column)
    if walked:      # the prime above 2 comes last
        assert per_column[-1] > 0 and cd.pres.gens[-1].a == 2


# ------------------------- real fields of narrow 4-rank 0 at p = 2

def _real_outputs(d):
    """What pram gives for real d at p = 2, each from a fresh build: the
    2-parts of the ray class groups at n = 1, ..., 6 and 20 and of the
    class data's ordinary group, tor_report and rank_inequalities."""
    pram._class_data.cache_clear()
    return ([pram.ray_class_group(d, 2, n).p_part(2)
             for n in (*range(1, 7), 20)],
            pram._class_data(d, 2).structure.p_part(2),
            pram.tor_report(d, 2), pram.rank_inequalities(d, 2))


def _assert_real_route(d):
    """The route's outputs for d equal the narrow staircase's, which a
    nonzero 4-rank forces."""
    got = _real_outputs(d)
    assert isinstance(pram._class_data(d, 2).pres,
                      quadclass.GenusPresentation), d.value
    with mock.patch.object(quadclass, "redei_4rank", lambda d: 1):
        want = _real_outputs(d)
        assert isinstance(pram._class_data(d, 2).pres,
                          quadclass.ClassGroupPresentation), d.value
    assert got == want, d.value


def _eps_norm(D: int) -> int:
    """N(eps) of real D: -1 when the principal cycle holds (-1, b, c)."""
    return -1 if any(f.a == -1 for f in
                     cycle_indefinite(principal_form(D))) else 1


def _real_kind(D: int) -> str:
    return "odd" if D % 2 else "8|D" if D % 8 == 0 else "4 mod 8"


# N(eps) = -1 needs every prime discriminant positive, so never -4
_REAL_KINDS = [("odd", 1), ("odd", -1), ("8|D", 1), ("8|D", -1),
               ("4 mod 8", 1)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 9), kind=st.sampled_from(_REAL_KINDS))
@example(seed=0, kind=("odd", 1))
@example(seed=0, kind=("odd", -1))
@example(seed=0, kind=("8|D", 1))
@example(seed=0, kind=("8|D", -1))
@example(seed=0, kind=("4 mod 8", 1))
def test_real_route_matches_the_narrow_route(seed, kind):
    # a seeded real field D < 10^6 of narrow 4-rank 0 of each kind, by D
    # mod 8 and N(eps): Cl+_2 = Cl+[2] on ramified prime forms gives every
    # 2-part the narrow staircase gives
    rng = random.Random(seed)
    while True:
        D = rng.randrange(5, 10 ** 6)
        if _real_kind(D) != kind[0]:
            continue
        try:
            d = quadclass.as_disc(D)
        except ValueError:
            continue
        if kind[1] < 0 and min(d.prime_discs) < 0:
            continue
        if quadclass.redei_4rank(d) == 0 and _eps_norm(D) == kind[1]:
            break
    _assert_real_route(d)


def test_real_route_matches_the_narrow_route_everywhere():
    # every real fundamental D <= 2000: 607 fields, 554 of narrow 4-rank
    # 0, each kind of _REAL_KINDS among them
    fields = []
    for D in range(5, 2001):
        try:
            fields.append(quadclass.as_disc(D))
        except ValueError:
            pass
    route = [d for d in fields if quadclass.redei_4rank(d) == 0]
    assert (len(fields), len(route)) == (607, 554)
    assert {(_real_kind(d.value), _eps_norm(d.value))
            for d in route} == set(_REAL_KINDS)
    for d in route:
        _assert_real_route(d)


@pytest.mark.parametrize("D,walked", [
    (5, 0), (65, 0), (105, 1), (1365, 1),   # D odd; 105, 1365 N(eps) = 1
    (8, 0), (40, 0), (1032, 2),             # 8 | D, 1032 with P_2
    (60, 1), (156, 2), (229, 0),            # D = 4 mod 8, 156 with P_2
])
def test_real_route_walks_the_principal_cycle_alone(monkeypatch,
                                                    reduce_calls, D,
                                                    walked):
    # no narrow staircase and no cycle of forms: one fundamental_unit walk
    # gives eps and the table, each I^2 = (q) of an odd ramified q takes
    # no walk, and only the ram column, when (sqrt(m)) is not narrowly
    # principal, and P_2's, which _coprime_rep moves off a | b, are
    # multiplied out
    calls = Counter()

    def counted(owner, name):
        f = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, wrapper)
    counted(pram, "fundamental_unit")
    counted(quadclass, "narrow_presentation")
    counted(quadclass, "cycle_indefinite")
    per_column = []
    real = pram._lift_relation

    def lift(forms, col, one, cycle):
        before = reduce_calls[0]
        out = real(forms, col, one, cycle)
        per_column.append(reduce_calls[0] - before)
        return out
    monkeypatch.setattr(pram, "_lift_relation", lift)
    d = quadclass.as_disc(D)
    cd = pram._class_data(d, 2)
    assert calls == {"fundamental_unit": 1}
    gens = cd.pres.gens
    assert len(gens) == d.ramified_count - 1 and \
        all(D % g.a == 0 for g in gens)
    # t - 1 columns I^2 = (q) and the ram column, last
    assert len(per_column) == len(cd.relations) == len(gens) + 1
    assert sum(n > 0 for n in per_column) == walked
    ram = any(cd.relations[-1][0])
    assert walked == ram + (2 in [g.a for g in gens])
    assert (per_column[-1] > 0) == ram


def test_coprime_rep_reduces_a_form_its_box_misses():
    # the prime above 2 of D = 1032 = 8 * 3 * 43 is a generator of the
    # real route; (2, 0, -129) is odd and positive only at x >= 9 (y odd),
    # past the box x, y < 3p + 3 = 9, so it is reduced in its class first
    f = QuadForm(2, 0, -129)
    assert not any(v > 0 and v % 2 for v in (
        2 * x * x - 129 * y * y for x in range(1, 9) for y in range(9)
        if gcd(x, y) == 1))
    g = pram._coprime_rep(f, 2)
    assert g.a > 0 and g.a % 2 and g.disc() == 1032
    narrow = quadclass.narrow_presentation(1032)
    assert narrow.dlog(g) == narrow.dlog(f)
    assert f in pram._class_data(1032, 2).pres.gens


# ------------------------------------------------ p-Sylow class data

def _p_outputs(D, p):
    """Every pram result for D and p, each read off p-parts only, with a
    PramError as its message."""
    def s_class(D, p):
        s = pram.s_class_group(D, p)
        return s.structure.p_part(p), s.s_count
    calls = [lambda: pram.program_vptor(D, p, 4),
             lambda: pram.program_vptor(D, p, min(20, pram.top_level(p))),
             lambda: pram.tor_report(D, p),
             lambda: pram.rank_inequalities(D, p),
             lambda: s_class(D, p),
             lambda: pram.ktilde_index(D, p)]
    if p == 2:
        calls.append(lambda: pram.reflection_check(D, p))
    out = []
    for call in calls:
        try:
            out.append(call())
        except pram.PramError as exc:
            out.append(str(exc))
    return out


def _assert_sylow_matches_whole_group(D, p):
    sylow = _p_outputs(D, p)
    with whole_groups():
        assert sylow == _p_outputs(D, p), (D, p)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(3, 2 * 10 ** 6), p=st.sampled_from([2, 3, 5, 7]))
def test_sylow_class_data_match_whole_group(x, p):
    # the preimage of Cl_p in Cl_{p^n} has index prime to p, so every
    # p-part pram reads is the same over Cl_p as over Cl
    d = x
    while pram.is_fundamental_neg(d) is None:
        d += 1
    _assert_sylow_matches_whole_group(-d, p)


# h = 10, 105, 192, 27, 567 and 936: each p-Sylow is far smaller than h
SYLOW_ANCHORS = [-119, -1000003, -1000036, -3299, -3321607, -9999995]


@pytest.mark.parametrize("D", SYLOW_ANCHORS)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sylow_class_data_match_whole_group_anchors(D, p):
    _assert_sylow_matches_whole_group(D, p)


@pytest.mark.parametrize("D,h", zip(SYLOW_ANCHORS,
                                    [10, 105, 192, 27, 567, 936]))
def test_class_data_present_the_p_sylow_subgroup(D, h):
    assert quadclass.class_group_imaginary(D).order == h
    for p in (2, 3, 5, 7):
        assert pram._class_data(D, p).pres.h == p ** arith.vp(h, p), (D, p)


def test_class_data_above_enum_cap_present_the_p_sylow_subgroup():
    # h = 706 from the L-series, so Cl_2 has order 2
    assert quadclass.class_group_imaginary(-10000003).order == 706
    assert pram._class_data(-10000003, 2).pres.h == 2
