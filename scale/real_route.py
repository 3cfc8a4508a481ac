"""Scale tier: the real route at p = 2 against the narrow staircase.

Every real fundamental D <= 2 * 10^4: 6,081 fields, 5,267 of them of
narrow 4-rank 0.  Such a field takes its class data from Cl+_2 =
Cl+[2] on ramified prime forms (quadclass.real_presentation); with
Redei's 4-rank forced to 1 it takes the narrow staircase instead, as
every field of nonzero 4-rank does.  Both must give the same 2-parts of
the ray class groups at n = 1, ..., 6 and 20 and of the ordinary class
group, and the same tor_report and rank_inequalities, and Redei's
4-rank must be the narrow group's.  About 20 s on one core of a 2-core
machine.

The file is named outside pytest's test_*.py pattern, so that the tier-1
run does not collect it; run it by name:

    PYTHONPATH=src python -m pytest -q scale/real_route.py
"""

from unittest import mock

from epsclass import pram, quadclass

MAX_D = 2 * 10 ** 4


def _outputs(d):
    """pram's 2-parts for real d at p = 2, from a fresh build, and the
    class data's presented group."""
    pram._class_data.cache_clear()
    out = ([pram.ray_class_group(d, 2, n).p_part(2)
            for n in (*range(1, 7), 20)],
           pram._class_data(d, 2).structure.p_part(2),
           pram.tor_report(d, 2), pram.rank_inequalities(d, 2))
    return out, pram._class_data(d, 2).pres.structure()


def test_real_route_matches_the_narrow_route_to_2e4():
    fields = []
    for D in range(5, MAX_D + 1):
        try:
            fields.append(quadclass.as_disc(D))
        except ValueError:
            pass
    assert len(fields) == 6081
    route = 0
    for d in fields:
        four_rank = quadclass.redei_4rank(d)
        if four_rank == 0:
            route += 1
            got, _ = _outputs(d)
            with mock.patch.object(quadclass, "redei_4rank", lambda d: 1):
                want, narrow = _outputs(d)
            assert got == want, d.value
        else:
            _, narrow = _outputs(d)
        assert four_rank == sum(e % 4 == 0 for e in narrow.divisors), d.value
    assert route == 5267
