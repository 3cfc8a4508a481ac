"""Scale tier: the genus route at p = 2 against the staircase over Cl_2.

Every fundamental D < 0 with 3 * 10^4 < |D| <= 10^5: 21,267 fields, past
the |D| <= 3 * 10^4 that tier-1 covers.  full_imaginary_presentation(D,
2) gives Cl_2 on a genus basis: from the ramified prime forms alone, with
no h, where Redei's 4-rank is 0 (the Redei route), and over the counted
h otherwise (the h route).  Against the staircase over Cl_2 = Cl^h',
imaginary_presentation(D, h', 2^v) with h counted here, it must give the
same structure, return h exactly when Delta = v - (omega - 1) > 0, and
take each sampled class of Cl_2 to dlog coordinates that give the class
back through its generators.  About 9 s on one core of a 2-core
machine.

The file is named outside pytest's test_*.py pattern, so that the tier-1
run does not collect it; run it by name:

    PYTHONPATH=src python -m pytest -q scale/genus_route.py
"""

import random

from epsclass import pram, quadclass
from epsclass.abgroup import power
from epsclass.arith import vp
from epsclass.quadforms import class_number_imaginary

MIN_D, MAX_D = 3 * 10 ** 4 + 1, 10 ** 5
SAMPLES = 8     # classes of Cl_2 taken through dlog and back, per field
# the fields of Redei 4-rank 0, which take the Redei route
REDEI_FIELDS = 12016


def _assert_genus_route(d, rng) -> bool:
    """The checks above for d; whether it took the Redei route."""
    D = d.value
    got, pres = quadclass.full_imaginary_presentation(d, 2)
    h = class_number_imaginary(D)
    v, r = vp(h, 2), d.ramified_count - 1
    assert got == (h if v > r else None), D
    assert isinstance(pres, quadclass.GenusPresentation), D
    assert len(pres.gens) == r, D
    ref = quadclass.imaginary_presentation(d, h >> v, 1 << v)
    assert pres.h == ref.h == 1 << v, D
    assert pres.structure() == ref.structure(), D
    classes = list(ref.dlog_table)
    for x in rng.sample(classes, min(SAMPLES, len(classes))):
        y = classes[0]      # the identity
        for g, e in zip(pres.gens, pres.dlog(x)):
            if e:
                y = pres.op(y, power(g, e, pres.op))
        assert y == x, (D, x)
    return got is None


def test_genus_route_matches_the_staircase_to_1e5():
    rng = random.Random(5)
    fields = redei = 0
    for d in pram.fundamental_negs(MIN_D, MAX_D):
        fields += 1
        redei += _assert_genus_route(d, rng)
    assert fields == 21267
    assert redei == REDEI_FIELDS
