"""Scale tier: tor-scan with one worker against tor-scan over two shards.

`tor-scan --p 2` over 10^6 <= |D| <= 10^6 + 10^5: 30,399 fundamental
fields, each taken through its level-20 ray class group.  With
`--workers 2` the window is cut into two shards, each scanned in a
forked process with its own class-data and ring caches, and the shards'
records merged against the running maximum; with `--workers 1` one
process scans the window whole.  The data rows, the 17 fields that
reach the running maximum, must be identical, and the config headers may
differ only in `workers`.  About 33 s on a 2-core machine: 21 s with one
worker, 12 s with two.

The file is named outside pytest's test_*.py pattern, so that the tier-1
run does not collect it; run it by name:

    PYTHONPATH=src python -m pytest -q scale/shard_route.py
"""

from epsclass import cli

MIN_D, MAX_D = 10 ** 6, 10 ** 6 + 10 ** 5


def _scan(path, workers):
    """(config header, data rows) of a tor-scan run written to path."""
    assert cli.main(["tor-scan", "--p", "2", "--min-d", str(MIN_D),
                     "--max-d", str(MAX_D), "--workers", str(workers),
                     "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# epsclass ")
    config = dict(kv.split("=", 1) for kv in lines[1][2:].split(" "))
    return config, lines[2:]


def test_two_shards_print_the_rows_of_one_worker(tmp_path):
    one_cfg, one = _scan(tmp_path / "one.csv", 1)
    two_cfg, two = _scan(tmp_path / "two.csv", 2)
    assert one[0] == "D,m,vptor,cp,error" and len(one) == 18
    assert not any(row.split(",")[4] for row in one[1:])
    assert two == one
    assert one_cfg.pop("workers") == "1" and two_cfg.pop("workers") == "2"
    assert two_cfg == one_cfg
