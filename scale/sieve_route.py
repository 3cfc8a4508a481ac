"""Scale tier: the batch sieve's class numbers against the per-field count.

Every fundamental D < 0 with |D| <= 10^6: 303,968 fields.  scan_arrays
sieves h for every |D| at once (batch_class_numbers_imaginary counts the
reduced forms (a, b, c) over all |D| together), with omega(|D|) and the
fundamental mask beside it; quadforms.class_number_imaginary counts one
field's forms from local root counts.  The two must agree on each field,
and 2^(omega - 1) must divide h (Gauss: Cl[2] has order 2^(omega - 1)).
About 25 s on one core of a 2-core machine, nearly all of it the
per-field counts.

The file is named outside pytest's test_*.py pattern, so that the tier-1
run does not collect it; run it by name:

    PYTHONPATH=src python -m pytest -q scale/sieve_route.py
"""

import numpy as np

from epsclass import quadclass
from epsclass.quadforms import class_number_imaginary

MAX_D = 10 ** 6
FIELDS = 303968


def test_sieve_matches_the_per_field_count_to_1e6():
    h, fund, om, _ = quadclass.scan_arrays(MAX_D)
    ds = np.flatnonzero(fund)
    assert ds.size == FIELDS
    for d, hd, n in zip(ds.tolist(), h[ds].tolist(), om[ds].tolist()):
        assert class_number_imaginary(-d) == hd, d
        assert hd % (1 << n - 1) == 0, (d, hd, n)
