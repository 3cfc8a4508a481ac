import hashlib

import pytest

from epsclass import cubic as cb
from epsclass.arith import factor


def test_is_cubic_conductor():
    assert cb.is_cubic_conductor(7)
    assert cb.is_cubic_conductor(9)
    assert cb.is_cubic_conductor(657)      # 9 * 73
    assert not cb.is_cubic_conductor(15)   # 5 != 1 mod 3
    assert not cb.is_cubic_conductor(27)
    assert not cb.is_cubic_conductor(49)


def test_cubic_polynomials_basic():
    assert [f.poly_str() for f in cb.cubic_polynomials(7)] == ["x^3+x^2-2*x-1"]
    assert [f.poly_str() for f in cb.cubic_polynomials(9)] == ["x^3-3*x+1"]
    f7 = cb.cubic_polynomials(7)[0]
    assert cb._cubic_disc(f7.poly) == 49
    f9 = cb.cubic_polynomials(9)[0]
    assert cb._cubic_disc(f9.poly) == 81


def test_cubic_polynomials_match_tables():
    got = sorted(f.poly for f in cb.cubic_polynomials(1983163))
    assert len(got) == 16
    assert (49725976, -661054, 1, 1) in got
    ff = cb.parse_fixture_file(cb.fixture_dir() / "p3" / "f1983163.txt")
    assert got == sorted(f.poly for f in ff.fixtures if f.poly)

    got = sorted(f.poly for f in cb.cubic_polynomials(3895721091))
    assert len(got) == 8
    ff = cb.parse_fixture_file(cb.fixture_dir() / "p3" / "rank6.txt")
    assert got == sorted(f.poly for f in ff.fixtures)


def test_counts_are_two_to_n_minus_one():
    for f in cb.enumerate_conductors(20000):
        flds = cb.cubic_polynomials(f)
        assert len(flds) == 2 ** (factor(f).omega() - 1), f
        assert all(cb.discriminant_filter(g) for g in flds)


def test_discriminant_filter_rejects():
    fake = cb.CubicField(7, 0, 0, 0, (-2, 0, 0, 1))  # x^3 - 2, disc -108
    assert not cb.discriminant_filter(fake)
    with pytest.raises(ValueError):
        cb.discriminant_filter(cb.CubicField(7, 0, 0, 0, (-1, -1, 1, 1)))


def test_ambiguous_number_and_rank_window():
    assert cb.ambiguous_number(7, 3) == 1
    assert cb.ambiguous_number(1983163, 3) == 81
    assert cb.ambiguous_number(13981, 5) == 25
    assert cb.rank_window(4, 3) == (3, 6)
    assert cb.rank_window(1, 7) == (0, 0)
    assert cb.rank_window(5, 3) == (4, 8)


def test_parse_fixture_line():
    fix = cb.parse_fixture_line("f=657 N=2 P=x^3-219*x-1241 Cl=[3,3]", p=3)
    assert (fix.f, fix.N) == (657, 2)
    assert fix.poly == (-1241, -219, 0, 1)
    assert fix.cl.divisors == (3, 3) and not fix.starred
    fix = cb.parse_fixture_line(
        "f=15561 N=4 P=x^3-5187*x+141778     Cl=[9,3,3,3]", p=3)
    assert fix.cl.divisors == (9, 3, 3, 3)
    fix = cb.parse_fixture_line("f=7 P=x^3+x^2-2*x-1 Cl=[]", p=3)
    assert fix.cl.order == 1
    fix = cb.parse_fixture_line(
        "f=1983163  P=x^3+x^2-661054*x-206102051Cl=[12,12,3,3]=[4,4]x[3,3,3,3]",
        p=3)
    assert fix.cl.divisors == (12, 12, 3, 3)
    fix = cb.parse_fixture_line("P=x^3+x^2-661054*x+ 49725976    Cl=[6,6,3,3]",
                                p=3, default_f=1983163)
    assert fix.poly[0] == 49725976 and fix.f == 1983163
    with pytest.raises(cb.FixtureParseError):
        cb.parse_fixture_line("just some text", p=3)


def test_parse_starred_and_wrapped():
    text = """p=5
f=13981    P=x^5+x^4-5592*x^3-261165*x^2-4479065*x-26832541
                                       Cl=[55,5,5]=[11]x[5,5,5]*
"""
    ff = cb.parse_fixture_text(text)
    (fix,) = ff.fixtures
    assert fix.starred
    assert fix.cl.divisors == (55, 5, 5)
    assert len(fix.poly) == 6 and fix.poly[0] == -26832541


def test_parse_tor_records():
    text = """p=2
m=221 Clres=[4] Clord =[2]
Structure of Tor=[16]
#Tor=16      Cp=1.0272342185833848333397010211662592994
"""
    ff = cb.parse_fixture_text(text)
    (fix,) = ff.fixtures
    assert fix.m == 221
    assert fix.clres.divisors == (4,) and fix.clord.divisors == (2,)
    assert fix.tor.divisors == (16,) and fix.ntor == 16
    assert cb.validate_fixture(fix) == []
    # a torsion block belongs to the row right above it, once
    for extra in ("Structure of Tor=[2]", "#Tor=2 Cp=1.0"):
        with pytest.raises(cb.FixtureParseError, match="line 5"):
            cb.parse_fixture_text(text + extra)


_TOR_HEAD = "p=2\nm=-15 Clres=[2]\nStructure of Tor=[2]\n"


@pytest.mark.parametrize("tor_line", ["#Tor=2", "#Tor=zz Cp=0.5",
                                      "#Tor=2 Cp=inf", "#Tor=2 Cp=-inf",
                                      "#Tor=2 Cp=nan"])
def test_torsion_lines_go_through_the_reader(tor_line):
    # a #Tor line without Cp, or with a bad value, is a parse error that
    # names its line, not a KeyError or a bare ValueError; a Cp of inf
    # read as a float crashed cubic-validate in _sig_agree
    with pytest.raises(cb.FixtureParseError, match="line 4"):
        cb.parse_fixture_text(_TOR_HEAD + tor_line + "\n")


@pytest.mark.parametrize("poly", ["x^3+x^2-2*x-1+", "x^3-", "-", "+",
                                  "x^3+*x", "2*+x^3", "x^3+-1"])
def test_bare_sign_terms_are_refused(poly):
    # a bare sign was read as +-1: the first gave (0, -2, 1, 1)
    with pytest.raises(cb.FixtureParseError, match="line 2"):
        cb.parse_fixture_text(f"p=3\nf=7 N=1 P={poly} Cl=[]\n")


def test_poly_degree_above_p_is_refused():
    # x^3000000 built a tuple of 3000001 coefficients (a 25 MB peak)
    assert cb.parse_poly("x^3+x^2-2*x-1", 3) == (-1, -2, 1, 1)
    assert cb.parse_poly("2*x^2 - 3", 3) == (-3, 0, 2)
    for poly in ("x^4+1", "x^3000000+x^2-2*x-1", "x^999999999"):
        with pytest.raises(cb.FixtureParseError, match="above p = 3"):
            cb.parse_poly(poly, 3)
    with pytest.raises(cb.FixtureParseError, match="line 2, col 8"):
        cb.parse_fixture_text("p=3\nf=7 N=1 P=x^3000000+x^2-2*x-1 Cl=[]\n")


def test_embedded_fixtures_parse_to_the_same_rows():
    # 17 files, 202 rows; the digest pins every field of every row
    files = cb.load_all_fixtures()
    h = hashlib.sha256()
    for ff in files:
        h.update(repr((ff.p, ff.conductor, ff.fixtures)).encode())
    assert (len(files), sum(len(ff.fixtures) for ff in files)) == (17, 202)
    assert h.hexdigest() == \
        "9d517e189e70b5edf177aee0b29a8409ada7780374c2337001318508f81e88aa"


def test_delta_from_fixture():
    fix = cb.parse_fixture_line("f=657 N=2 P=x^3-219*x-1241 Cl=[3,3]", p=3)
    assert cb.delta_from_fixture(fix) == (1, 1)
    fix = cb.parse_fixture_line(
        "f=15561 N=4 P=x^3-5187*x+141778 Cl=[9,3,3,3]", p=3)
    assert cb.delta_from_fixture(fix) == (1, 2)
    fix = cb.parse_fixture_line(
        "f=85276009 N=6 P=x^3-x^2-1*x+1000 Cl=[3,3,3,3,3]", p=3)
    assert cb.delta_from_fixture(fix) == (0, 0)


def test_validate_fixture_catches_bad_rows():
    fix = cb.parse_fixture_line("f=3913 N=3 P=x^3+x^2-1304*x+17681 Cl=[3]",
                                p=3)
    assert any("smaller than the ambiguous" in e
               for e in cb.validate_fixture(fix))
    # 2-part of odd dimension is impossible for p=3 (residue degree 2)
    fix = cb.parse_fixture_line("f=657 N=2 P=x^3-219*x-1241 Cl=[6,3]", p=3)
    assert any("residue degree" in e for e in cb.validate_fixture(fix))
    fix = cb.parse_fixture_line("f=657 N=2 P=x^3-219*x-1241 Cl=[3,3,3,3,3]",
                                p=3)
    assert any("outside" in e for e in cb.validate_fixture(fix))


def test_all_embedded_fixtures_pass():
    rep = cb.validate_all()
    assert rep.files >= 15 and rep.rows >= 200
    assert rep.ok, rep.failures[:5]


def test_p3_fixture_conflict_is_pinned():
    # f1983163.txt and tor_f1983163.txt list the same 16 polynomials with
    # the same multiset of Cl, but pair them differently on 13 rows; a new
    # disagreement, or an edit that settles one, fails here
    def cl_by_poly(name):
        ff = cb.parse_fixture_file(cb.fixture_dir() / "p3" / name)
        return {f.poly: f.cl for f in ff.fixtures if f.poly}
    a, b = cl_by_poly("f1983163.txt"), cl_by_poly("tor_f1983163.txt")
    assert set(a) == set(b) and len(a) == 16
    assert sorted(map(str, a.values())) == sorted(map(str, b.values()))
    # x^3 + x^2 - 661054 x + c, listed by c
    assert {p[0] for p in a if a[p] != b[p]} == {
        -206102051, -188253584, -186270421, -158506139, -146607161,
        -140657672, -79179619, 2130064, 49725976, 97321888, 138968311,
        186564223, 198463201}
    assert all(p[1:] == (-661054, 1, 1) for p in a)
