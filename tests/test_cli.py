import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

import epsclass
from epsclass import cli, cubic, pram, quadclass, quadforms
from epsclass import filtration as fl
from epsclass.arith import FactorBudgetError
from epsclass.quadclass import ClassNumberCapError
from oracles import quad_scan_rows_loop, scan_windows


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def rows_of(out):
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    parsed = list(csv.reader(lines))
    return parsed[0], parsed[1:]


def config_of(out):
    line = next(ln for ln in out.splitlines() if ln.startswith("# ")
                and "=" in ln)
    return dict(kv.split("=", 1) for kv in line[2:].split(" "))


def test_usage_errors(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["tor-scan", "--p", "2"]) == 2   # missing range


@pytest.mark.parametrize("argv", [
    ["tor-scan", "--p", "1", "--min-d", "3", "--max-d", "20"],
    ["tor-scan", "--p", "4", "--min-d", "3", "--max-d", "20"],
    ["quad-maxima", "--max-d", "100", "--workers", "0"],
    ["quad-maxima", "--max-d", "100", "--workers", "-1"],
    ["tor-scan", "--p", "2", "--min-d", "3", "--max-d", "20",
     "--workers", "0"],
    ["tor-scan", "--p", "2", "--min-d", "3", "--max-d", "20",
     "--workers", "-1"],
    ["tor-scan", "--p", "2", "--min-d", "3", "--max-d", "20", "--n", "0"],
    ["tor-family", "--p", "3"],
    ["tor-family", "--count", "0"],
    ["tor-family", "--count", "-1"],
    ["reflection-check", "--p", "3", "--max-d", "50"],
    ["filtration-mc", "--p", "1", "--n", "3"],
    ["filtration-mc", "--p", "0", "--n", "3"],
    ["filtration-mc", "--p", "4", "--n", "3"],
    ["filtration-mc", "--p", "3", "--n", "1"],
    ["filtration-mc", "--p", "3", "--n", "3", "--samples", "0"],
    ["filtration-mc", "--p", "3", "--n", "3", "--samples", "-1"],
    ["filtration-run", "--p", "1"],
    ["filtration-run", "--p", "4"],
    ["filtration-run", "--p", "3", "--n", "1"],
    ["primes", "--p", "4", "--count", "3"],
    ["quad-scan", "--p", "4", "--max-d", "100"],
    ["quad-maxima", "--stat", "p-exponent", "--p", "4", "--max-d", "2000"],
    ["normic-search", "--p", "4", "--rho", "1", "--q", "3"],
    ["normic-search", "--p", "2", "--rho", "-1", "--q", "3"],
    # --max-a 0 once ran the whole default range, and -4 an empty table
    ["normic-search", "--p", "2", "--rho", "1", "--q", "3", "--max-a", "0"],
    ["normic-search", "--p", "2", "--rho", "1", "--q", "3", "--max-a", "-4"],
    # a negative --max-d once leaked numpy's "negative dimensions" or
    # exited 0; |D| >= 3 for every imaginary field
    ["quad-scan", "--max-d", "-5"],
    ["quad-scan", "--max-d", "2"],
    ["quad-maxima", "--max-d", "-5"],
    ["quad-maxima", "--max-d", "2"],
    ["reflection-check", "--max-d", "-3"],
    ["reflection-check", "--max-d", "2"],
    ["bounds", "--p", "4", "--eps", "0.1"],
    ["bounds", "--p", "7", "--eps", "0"],
    ["bounds", "--p", "7", "--eps", "-0.1"],
    ["bounds", "--p", "7", "--eps", "0.1", "--c", "1.5"],
    # each of these once ended in a traceback with exit 1: N0 = e^(log N0)
    # overflowed, N0 < 1 or a nan failed find_N0's checks, a nan delta
    # X's and --cp <= 0 Y0's
    ["bounds", "--p", "3", "--eps", "0.001"],
    ["bounds", "--p", "7", "--eps", "0.1", "--o1=-1e300"],
    ["bounds", "--p", "7", "--eps", "0.1", "--o1=1e300"],
    ["bounds", "--p", "7", "--eps", "1e300"],
    ["bounds", "--p", "7", "--eps", "inf"],
    ["bounds", "--p", "7", "--eps", "0.1", "--o1", "nan"],
    ["bounds", "--p", "7", "--eps", "0.1", "--delta", "nan"],
    ["bounds", "--p", "7", "--eps", "0.1", "--delta=-1e308"],
    ["bounds", "--p", "7", "--eps", "0.1", "--c", "nan"],
    ["bounds", "--p", "7", "--eps", "0.1", "--cp", "0"],
    ["bounds", "--p", "7", "--eps", "0.1", "--cp", "-1"],
    ["bounds", "--p", "7", "--eps", "0.1", "--cp", "inf"],
    # a nan --eps once printed nan rows with exit 0
    ["quad-scan", "--max-d", "10", "--eps", "nan"],
    ["quad-maxima", "--max-d", "10", "--eps", "inf"],
    # an --eps with max-d^(|eps|/2 + 1) past the float range ended in an
    # OverflowError (quad-scan after 11 rows) or ZeroDivisionError traceback
    ["quad-maxima", "--stat", "genus", "--eps", "1000", "--max-d", "100"],
    ["quad-maxima", "--stat", "raw", "--eps", "-2000", "--max-d", "100"],
    ["quad-scan", "--stat", "genus", "--eps", "400", "--max-d", "100"],
    # --q 0 and a negative --q to an odd power leaked isqrt's message, and
    # -3 to an even power ran as q = 3
    ["normic-search", "--p", "2", "--rho", "1", "--q", "0"],
    ["normic-search", "--p", "2", "--q", "-3", "--rho", "1"],
    ["normic-search", "--p", "3", "--rho", "1", "--q", "-2"],
    ["normic-search", "--p", "3", "--rho", "1", "--q", "1"],
    # 7 is the smallest cyclic cubic conductor: --f -7 leaked isqrt's
    # message, and --max-f below 7 printed an empty table with exit 0
    ["cubic-enum", "--f", "-7"],
    ["cubic-enum", "--f", "6"],
    ["cubic-enum", "--max-f", "0"],
    ["cubic-enum", "--max-f", "-5"],
    ["cubic-enum", "--max-f", "6"],
    # an inverted range once printed an empty table with exit 0
    ["tor-scan", "--p", "2", "--min-d", "30", "--max-d", "10"],
    ["quad-scan", "--min-d", "50", "--max-d", "10"],
    ["quad-maxima", "--min-d", "50", "--max-d", "10"],
    # and a --max-d below 3, which holds no imaginary field
    ["tor-scan", "--p", "2", "--min-d", "-5", "--max-d", "2"],
    # the p-adic series grow with n: --n 1024 ran for minutes
    ["tor-scan", "--p", "2", "--n", "65", "--min-d", "3", "--max-d", "40"],
    ["tor-scan", "--p", "3", "--n", "33", "--min-d", "3", "--max-d", "40"],
    # a ring's box grows as p^2, and the rings cache holds 256 of them
    ["tor-scan", "--p", "37", "--min-d", "3", "--max-d", "10"],
    # sieves of 14.9 GiB and 246 GiB once ended in a numpy traceback
    ["primes", "--p", "2", "--count", "100000000"],
    ["primes", "--p", "1000000007", "--count", "3"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_invalid_arguments_are_usage_errors(argv, capsys):
    # --p 1 once looped forever (in tor-scan and filtration-mc) and
    # --workers 0 divided by zero
    t = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - t < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    # one error line, after argparse's usage if any, and no traceback
    lines = err.splitlines()
    assert "Traceback" not in err
    assert [ln for ln in lines if ln.startswith("epsclass")] == lines[-1:]


@pytest.mark.parametrize("cmd", ["quad-maxima", "quad-scan"])
@pytest.mark.parametrize("stat,eps", [("genus", "300"), ("raw", "-300")])
def test_eps_inside_the_float_range_runs(cmd, stat, eps, capsys):
    # 100^151 is finite: every d^(eps/2), and the numpy statistics of the
    # maxima filter, stay finite and nonzero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run([cmd, "--stat", stat, "--eps", eps, "--max-d", "100"],
                        capsys)
    _, rows = rows_of(out)
    assert code == 0 and rows
    assert all(0 < float(r[3]) < float("inf") for r in rows)


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    # once a FileNotFoundError traceback with exit code 1, which is
    # reserved for a failed validation
    path = tmp_path / "missing" / "x.csv"
    assert cli.main(["bounds", "--p", "7", "--eps", "0.1",
                     "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err.count("\n") == 1 and str(path) in err


def test_primes_csv(capsys):
    code, out = run(["primes", "--p", "3", "--count", "5"], capsys)
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["k", "ell"]
    assert rows == [["1", "7"], ["2", "13"], ["3", "19"],
                    ["4", "31"], ["5", "37"]]
    assert out.startswith("# epsclass ")


def test_primes_mv(capsys):
    code, out = run(["primes", "--p", "5", "--count", "50", "--mv"], capsys)
    assert code == 0
    assert config_of(out)["mv_holds"] == "True"


def test_quad_maxima_first_rows(capsys):
    code, out = run(["quad-maxima", "--stat", "genus", "--eps", "0.05",
                     "--max-d", "4000"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert [int(r[0]) for r in rows[:4]] == [-3, -23, -47, -71]


def test_quad_maxima_workers_deterministic(capsys):
    args = ["quad-maxima", "--stat", "genus", "--eps", "0.05",
            "--max-d", "3000"]
    _, out1 = run(args + ["--workers", "1"], capsys)
    _, out2 = run(args + ["--workers", "3"], capsys)
    # header differs only in the workers entry; rows must be identical
    assert rows_of(out1) == rows_of(out2)


def test_quad_scan_workers_deterministic(capsys):
    args = ["quad-scan", "--stat", "p-exponent", "--p", "3",
            "--max-d", "3000"]
    _, out1 = run(args + ["--workers", "1"], capsys)
    _, out3 = run(args + ["--workers", "3"], capsys)
    assert rows_of(out1) == rows_of(out3)


def test_quad_scan_streams_its_rows(tmp_path):
    # the rows go to the file as they are made: with a list of every row
    # built first, this run's traced peak was 16.6 MB against 6.4 MB
    out = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        code = cli.main(["quad-scan", "--stat", "p-exponent", "--p", "3",
                         "--max-d", "300000", "--workers", "1",
                         "--output", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # 91183 fundamental D with |D| <= 3*10^5, a header row, two # lines
    assert len(out.read_text().splitlines()) == 91186
    assert peak < 10 * 2 ** 20


def test_closed_output_pipe_exits_quietly():
    # `epsclass quad-scan --max-d 20000 | head -2`: its 180 kB of rows
    # overfill the pipe, so the reader closes it while the scan still
    # writes; no traceback, no epsclass: line, not the usage status 2
    src = os.path.dirname(os.path.dirname(epsclass.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "epsclass.cli", "quad-scan", "--max-d",
         "20000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head[0].startswith(b"# epsclass ")
    assert err == b""
    assert code == 141


def _json_dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_quad_scan_json_streams_its_rows(tmp_path):
    # with the document built whole before json.dump, this run's traced
    # peak was 33.8 MB
    out = tmp_path / "scan.json"
    tracemalloc.start()
    try:
        code = cli.main(["quad-scan", "--stat", "p-exponent", "--p", "3",
                         "--max-d", "300000", "--workers", "1",
                         "--format", "json", "--output", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    text = out.read_text()
    doc = json.loads(text)
    assert len(doc["rows"]) == 91183
    assert text == _json_dump(doc)
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["primes", "--p", "3", "--count", "40"],
    ["quad-maxima", "--stat", "genus", "--eps", "0.05", "--max-d", "20000"],
    ["cubic-validate"],     # no rows
])
def test_json_rows_are_the_bytes_of_json_dump(argv, capsys):
    code, out = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert out == _json_dump(json.loads(out))


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in
    this process, so that no worker is started."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("argv,jobs", [
    pytest.param(["tor-scan", "--p", "2", "--min-d", "3", "--max-d", "10"],
                 8, id="tor-scan"),
    pytest.param(["quad-scan", "--max-d", "2000"], None, id="quad-scan"),
    pytest.param(["quad-maxima", "--stat", "genus", "--eps", "0.05",
                  "--max-d", "2000"], None, id="quad-maxima"),
])
def test_pool_is_bounded_by_jobs_and_cores(monkeypatch, capsys, argv, jobs):
    # a fork pool starts all of its max_workers at the first submit: 5000
    # workers on 8 one-field tor-scan shards forked 5000 processes; a quad
    # scan has one sieve shard per core
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    _, want = run(argv + ["--workers", "1"], capsys)
    assert _InProcessPool.sizes == []
    for cores in (4, 64):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(_InProcessPool, "sizes", [])
        _, out = run(argv + ["--workers", "5000"], capsys)
        assert _InProcessPool.sizes == [min(jobs or cores, cores)]
        assert rows_of(out) == rows_of(want)


def test_quad_scan_emits_all_fundamental(capsys):
    code, out = run(["quad-scan", "--stat", "raw", "--max-d", "100"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    by_d = {int(r[0]): r for r in rows}
    assert by_d[-23][1] == "3"
    assert all(int(r[1]) >= 1 for r in rows)


def test_tor_scan_cli(capsys):
    code, out = run(["tor-scan", "--p", "2", "--min-d", "1000000",
                     "--max-d", "1000200"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert [(int(r[0]), int(r[2])) for r in rows] == \
        [(-1000011, 3), (-1000020, 3), (-1000036, 4), (-1000132, 5)]


def test_tor_scan_below_three(capsys):
    # -d < 0 was taken as the real field of discriminant d and crashed
    code, out = run(["tor-scan", "--p", "2", "--min-d", "-20",
                     "--max-d", "100"], capsys)
    assert code == 0
    _, ref = run(["tor-scan", "--p", "2", "--min-d", "3", "--max-d", "100"],
                 capsys)
    assert rows_of(out)[1] == rows_of(ref)[1] != []


def test_tor_scan_factor_budget_exits_0_with_an_error_row(monkeypatch,
                                                        capsys):
    # |D| = p q with p, q about 10^15 exhausts the factoring budget (about
    # 7 s, so the overrun is simulated here): one error row and exit 0,
    # where the scan once stopped with exit 3 after its header
    d = 1000000000001040000000000037111
    real = quadclass.factor

    def exhausted(n, *args):
        if n == d:
            raise FactorBudgetError(f"rho budget exhausted on {n}")
        return real(n, *args)
    monkeypatch.setattr(quadclass, "factor", exhausted)
    code, out = run(["tor-scan", "--p", "2", "--min-d", str(d),
                     "--max-d", str(d)], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert rows == [[str(-d), str(-d), "0", "0",
                     f"rho budget exhausted on {d}"]]


def test_tor_scan_workers_deterministic(capsys):
    args = ["tor-scan", "--p", "2", "--min-d", "1000000",
            "--max-d", "1000150"]
    _, out1 = run(args + ["--workers", "1"], capsys)
    _, out2 = run(args + ["--workers", "4"], capsys)
    assert rows_of(out1) == rows_of(out2)


def test_tor_family(capsys):
    code, out = run(["tor-family", "--p", "2", "--count", "4"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert [r[1] for r in rows] == ["-3", "-15", "105", "-1155"]
    assert rows[3][2] == "[2,2,2]"


def test_bounds(capsys):
    code, out = run(["bounds", "--p", "7", "--eps", "0.1"], capsys)
    assert code == 0
    cfg = config_of(out)
    assert abs(float(cfg["N0"]) - 2.935394e16) < 0.002 * 2.935394e16
    header, rows = rows_of(out)
    assert header == ["N", "X", "X0", "Y0", "logC_required"]
    assert len(rows) >= 17


def test_cubic_enum(capsys):
    code, out = run(["cubic-enum", "--f", "7"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 1 and rows[0][:3] == ["7", "-1", "1"]
    code, out = run(["cubic-enum", "--max-f", "100"], capsys)
    _, rows = rows_of(out)
    assert ["63", "2", "3"] in [r[:3] for r in rows]


def test_cubic_validate_and_fixtures_check(capsys):
    code, out = run(["cubic-validate"], capsys)
    assert code == 0
    assert config_of(out)["ok"] == "True"
    code, out = run(["fixtures-check"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert len(rows) == 17


@pytest.mark.parametrize("lines,where", [
    (["p=2", "m=-15 Clres=[x]"], "line 2, col 6"),
    (["p=2", "m=-15 Clres=[2]", "Structure of Tor=[2]", "#Tor=2"], "line 4"),
    (["p=2", "m=-15 Clres=[2]", "Structure of Tor=[2]", "#Tor=zz Cp=0.5"],
     "line 4, col 0"),
    # a bare sign, read as -1 + 1 before; a degree that allocated
    # 3000001 coefficients; a Cp that crashed _sig_agree
    (["p=3", "f=7 N=1 P=x^3+x^2-2*x-1+ Cl=[]"], "line 2, col 8"),
    (["p=3", "f=7 N=1 P=x^3000000+x^2-2*x-1 Cl=[]"], "line 2, col 8"),
    (["p=2", "m=-15 Clres=[2]", "Structure of Tor=[2]", "#Tor=2 Cp=inf"],
     "line 4, col 7"),
    (["p=2", "m=-15 Clres=[2]", "Structure of Tor=[2]", "#Tor=2 Cp=nan"],
     "line 4, col 7"),
    # values the validator takes the log or the valuation of: each ended
    # in a ZeroDivisionError traceback or in exit 2 with no line number
    (["p=3", "D=1 a=1 b=1 Cp=0.1 hp=3 Hp=[3]"], "line 2, col 0"),
    (["p=3", "D=-7 a=1 b=1 Cp=0.1 hp=3 Hp=[3]"], "line 2, col 0"),
    (["p=3", "D=23 a=1 b=1 Cp=0.1 hp=0 Hp=[3]"], "line 2, col 20"),
    (["p=2", "m=1 Clres=[2]", "Structure of Tor=[2]", "#Tor=2 Cp=0.5"],
     "line 2, col 0"),
    (["p=2", "m=-1 Clres=[2]", "Structure of Tor=[2]", "#Tor=2 Cp=0.5"],
     "line 2, col 0"),
    (["p=2", "m=-15 Clres=[2]", "Structure of Tor=[2]", "#Tor=0 Cp=0.5"],
     "line 4, col 0"),
    (["p=3", "f=1", "P=x^3+x^2-2*x-1 Cl=[3]", "Structure of Tor=[3]",
      "#Tor=3 Cp=0.5"], "line 2, col 0"),
    (["p=3", "conductor=1", "f=7 P=x^3+x^2-2*x-1 Cl=[3]",
      "Structure of Tor=[3]", "#Tor=3 Cp=0.5"], "line 2, col 0"),
    # a Cp with nothing to base it on: a TypeError traceback before
    (["p=2", "N=2 Clres=[2]", "Structure of Tor=[2]", "#Tor=2 Cp=0.5"],
     "line 2"),
])
def test_malformed_fixture_tree_exits_1(tmp_path, capsys, lines, where):
    sub = tmp_path / lines[0].replace("=", "")      # p2 or p3
    sub.mkdir()
    (sub / "a.txt").write_text("\n".join(lines) + "\n")
    for command in ("fixtures-check", "cubic-validate"):
        code = cli.main([command, "--fixtures", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"{command}: ")
        assert captured.err.count("\n") == 1 and where in captured.err


def test_filtration_run(capsys):
    code, out = run(["filtration-run", "--d", "-1155"], capsys)
    assert code == 0
    cfg = config_of(out)
    assert cfg["routes_agree"] == "True" and cfg["identity_ok"] == "True"
    code, out = run(["filtration-run", "--p", "3", "--n", "3",
                     "--seed", "5"], capsys)
    assert code == 0


def test_filtration_mc_deterministic(capsys):
    args = ["filtration-mc", "--p", "3", "--n", "3", "--samples", "30",
            "--seed", "1"]
    _, out1 = run(args, capsys)
    _, out2 = run(args, capsys)
    assert out1 == out2
    _, rows = rows_of(out1)
    assert sum(int(r[1]) for r in rows) == 30


def test_reflection_check(capsys):
    code, out = run(["reflection-check", "--max-d", "400"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert all(r[1] == "1" for r in rows)


def test_normic_search(capsys):
    code, out = run(["normic-search", "--p", "3", "--rho", "1", "--q", "2",
                     "--max-a", "5"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    assert rows and all(r[6] == "" for r in rows)


def test_json_format(capsys):
    code, out = run(["primes", "--p", "3", "--count", "3",
                     "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "epsclass" and doc["fields"] == ["k", "ell"]
    assert doc["rows"] == [["1", "7"], ["2", "13"], ["3", "19"]]
    assert doc["config"]["p"] == "3"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _ = run(["primes", "--p", "3", "--count", "3",
                   "--output", str(path)], capsys)
    assert code == 0
    text = path.read_text()
    assert text.startswith("# epsclass ") and text.endswith("3,19\n")


def test_tor_family_beyond_enumeration_cap_exits_3(capsys):
    code, out = run(["tor-family", "--p", "2", "--count", "10"], capsys)
    assert code == 3 and out == ""


def test_rho_walk_overrun_exits_3(monkeypatch, capsys):
    # m = -3 and -15 need no walk of 2 forms; m = 105 is real, and its
    # fundamental-unit walk overruns RHO_STEPS: exit 3 on one stderr line
    monkeypatch.setattr(quadforms, "RHO_STEPS", 2)
    assert cli.main(["tor-family", "--p", "2", "--count", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert "the rho walk from (1, 9, -6) exceeds the budget of 2" in err


def test_rho_walk_overrun_is_a_tor_scan_error_row(monkeypatch, capsys):
    # the relation walks of tor-scan's imaginary fields reduce under the
    # same RHO_STEPS: an overrun is an error row, and the scan exits 0
    monkeypatch.setattr(quadforms, "RHO_STEPS", 1)
    code, out = run(["tor-scan", "--p", "3", "--min-d", "3",
                     "--max-d", "300"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    errors = [r for r in rows if r[4]]
    assert errors and all("budget of 1 rho steps" in r[4] for r in errors)


def _refused_before_any_work(capsys, argv, code):
    """argv exits with code on one stderr line with no traceback and
    prints nothing."""
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err


def test_normic_search_above_the_budget_exits_3(monkeypatch, capsys):
    # it once walked every a <= sqrt(4 * 3^1024), factoring each B
    def no_factor(n, *args):
        raise AssertionError(f"{n} was factored")
    monkeypatch.setattr(quadclass, "factor", no_factor)
    for rho in ("10", "40"):
        _refused_before_any_work(capsys, [
            "normic-search", "--p", "2", "--rho", rho, "--q", "3"], 3)
    # a <= 9,999,999, within ENUM_CAP, but up to 5.6 * 10^7 series terms
    # per field: about a week
    _refused_before_any_work(capsys, [
        "normic-search", "--p", "2", "--rho", "0", "--q", "25000000000000"], 3)


def test_tor_scan_above_its_span_budget_exits_3(monkeypatch, capsys):
    # nothing bounded the window: 2 * 10^6 values of |D| above 10^13
    # would take hours and keep every error row
    def no_shard(*args):
        raise AssertionError("a shard was started")
    monkeypatch.setattr(cli, "_run_shards", no_shard)
    t = time.perf_counter()
    for argv in (["--min-d", "3", "--max-d", "2000003", "--workers", "2"],
                 ["--min-d", "-5", "--max-d", "2000003"],
                 ["--min-d", str(10 ** 13), "--max-d", str(10 ** 14)]):
        _refused_before_any_work(capsys, ["tor-scan", "--p", "2"] + argv, 3)
    assert time.perf_counter() - t < 1.0


def test_tor_scan_refuses_p_and_n_before_any_shard(monkeypatch, capsys):
    # p and n were left to each shard to check
    def no_shard(*args):
        raise AssertionError("a shard was started")
    monkeypatch.setattr(cli, "_run_shards", no_shard)
    for argv in (["--p", "37"], ["--p", "2", "--n", "65"],
                 ["--p", "3", "--n", "33"]):
        _refused_before_any_work(capsys, ["tor-scan", "--min-d", "3",
                                          "--max-d", "40", "--workers", "2"]
                                 + argv, 2)


def test_tor_scan_writes_each_shard_as_it_is_done(monkeypatch, capsys):
    # every row was held until the last shard ended, so that a killed or
    # piped run printed none
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    tor_scan, written = pram.tor_scan, []

    def shard(lo, hi, p, n):
        written.append(sys.stdout.getvalue())   # the output at its start
        return tor_scan(lo, hi, p, n)
    monkeypatch.setattr(pram, "tor_scan", shard)
    code, out = run(["tor-scan", "--p", "2", "--min-d", "1000000",
                     "--max-d", "1000200", "--workers", "2"], capsys)
    assert code == 0 and len(written) == 2
    header, rows = rows_of(out)
    # the shards are 10^6..1000100 and 1000101..1000200
    assert rows_of(written[0]) == (header, [])
    assert rows_of(written[1]) == (header, rows[:3])
    assert [r[0] for r in rows] == ["-1000011", "-1000020", "-1000036",
                                    "-1000132"]


def test_cubic_enum_writes_each_row_as_it_is_made(monkeypatch, capsys):
    # every row was held until the last conductor was examined; now, as
    # each f is examined, the output holds the header and the row of each
    # conductor below f
    examined, real = [], cubic.is_cubic_conductor

    def conductor(f):
        examined.append((f, sys.stdout.getvalue()))
        return real(f)
    monkeypatch.setattr(cubic, "is_cubic_conductor", conductor)
    code, out = run(["cubic-enum", "--max-f", "100"], capsys)
    header, rows = rows_of(out)
    assert code == 0 and header == ["f", "count", "ambiguous"]
    assert [int(r[0]) for r in rows] == [7, 9, 13, 19, 31, 37, 43, 61, 63,
                                         67, 73, 79, 91, 97]
    assert [f for f, _ in examined] == list(range(7, 101))
    for f, written in examined:
        assert rows_of(written) == (header, [r for r in rows
                                             if int(r[0]) < f]), f


@pytest.mark.parametrize("argv,module,name", [
    (["tor-family", "--p", "2", "--count", "100000"], pram, "tor_report"),
    (["tor-family", "--p", "2", "--count", "10"], pram, "tor_report"),
    (["reflection-check", "--max-d", "100000000000"], pram,
     "reflection_check"),
    (["cubic-enum", "--max-f", "100000000000000"], cubic,
     "is_cubic_conductor"),
    (["filtration-mc", "--p", "3", "--n", "4", "--samples", "1000000000"],
     fl, "synthesize"),
], ids=["tor-family", "tor-family-10", "reflection-check", "cubic-enum",
        "filtration-mc"])
def test_budget_exits_3_before_any_work(monkeypatch, capsys, argv, module,
                                        name):
    # each ran until it was killed, printing no row; tor-family multiplied
    # out every primorial first, and --count 10 reached its budget only
    # after nine fields
    def no_work(*args):
        raise AssertionError(f"{name}{args} was called")
    monkeypatch.setattr(module, name, no_work)
    t = time.perf_counter()
    _refused_before_any_work(capsys, argv, 3)
    assert time.perf_counter() - t < 1.0


@pytest.mark.parametrize("argv,module,budget", [
    (["reflection-check", "--max-d"], pram, "REFLECTION_MAX_D"),
    (["cubic-enum", "--max-f"], cubic, "ENUM_MAX_F"),
    (["filtration-mc", "--p", "3", "--n", "3", "--samples"], fl,
     "MC_SAMPLES"),
], ids=["reflection-check", "cubic-enum", "filtration-mc"])
def test_budget_runs_at_its_bound(monkeypatch, capsys, argv, module, budget):
    monkeypatch.setattr(module, budget, 100)
    assert run(argv + ["100"], capsys)[0] == 0
    _refused_before_any_work(capsys, argv + ["101"], 3)


def test_filtration_above_p_17_exits_2(monkeypatch, capsys):
    # --p 19 --n 3 once ran past 100 s building its group-ring blocks
    def no_block(*args):
        raise AssertionError(f"block {args} was built")
    monkeypatch.setattr(fl, "group_ring_block", no_block)
    for argv in (["filtration-run", "--p", "19", "--n", "3"],
                 ["filtration-run", "--p", "31", "--n", "3"],
                 ["filtration-mc", "--p", "19", "--n", "3"]):
        _refused_before_any_work(capsys, argv, 2)


@pytest.mark.parametrize("argv", [
    ["filtration-mc", "--p", "2", "--n", "12", "--samples", "2"],
    ["filtration-run", "--p", "2", "--n", "12"],
])
def test_synthesize_giving_up_exits_3(capsys, argv):
    # valid arguments whose MAX_ATTEMPTS draws all miss #M^G = 2^11: a
    # budget overrun, exit 3 on one stderr line, no longer the usage
    # error 2 of a ValueError
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert "no module with #M^G = 2^11 found in 500 attempts" in err


def test_budget_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise ClassNumberCapError("cap")
    monkeypatch.setattr(quadclass, "scan_arrays", boom)
    code, _ = run(["quad-scan", "--stat", "raw", "--max-d", "50"], capsys)
    assert code == 3


def test_scan_budget_exits_3_before_any_table(monkeypatch, capsys):
    # unpatched scan_arrays: at the cap both scans run, above it they stop
    # on one stderr line before the class-number table is allocated
    monkeypatch.setattr(quadclass, "ENUM_CAP", 100)
    for argv in (["quad-scan"], ["quad-maxima"]):
        assert run(argv + ["--max-d", "100"], capsys)[0] == 0

    def boom(X):
        raise AssertionError(f"a table up to {X} was built")
    monkeypatch.setattr(quadclass, "batch_class_numbers_imaginary", boom)
    for argv in (["quad-scan"], ["quad-maxima"],
                 ["quad-scan", "--workers", "2"],
                 ["quad-maxima", "--workers", "2"]):
        code = cli.main(argv + ["--max-d", "101"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.count("\n") == 1 and "101" in captured.err


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_quad_scan_rows_match_loop(monkeypatch, capsys, block):
    # the command itself, past main's range check, so that lo > hi is an
    # empty table here; --max-d below 3 is a usage error
    monkeypatch.setattr(quadclass, "_SCAN_BLOCK", block)
    for lo, hi in scan_windows(3000, seed=block):
        if hi < 3:
            continue
        for stat, eps, p in (("genus", 0.05, 3), ("raw", 0.1, 3),
                             ("p-exponent", 0.0, 2)):
            args = cli.build_parser().parse_args(
                ["quad-scan", "--stat", stat, "--eps", str(eps), "--p", str(p),
                 "--min-d", str(lo), "--max-d", str(hi)])
            assert args.func(args) == 0
            want = quad_scan_rows_loop(lo, hi, cli._STATS[stat], eps, p,
                                       quadclass.scan_arrays(hi))
            assert rows_of(capsys.readouterr().out)[1] == [
                [cli._fmt(v) for v in r] for r in want], (lo, hi, stat)


# sha256 of the full stdout; a change of any byte of these outputs fails
GOLDEN_STDOUT = [
    (["normic-search", "--p", "2", "--rho", "1", "--q", "3", "--max-a", "50"],
     "6e7afa1fc414464d3aa1e3e9d3ab3116f1c6104c98061ebba0d2c4b98129bd1e"),
    (["reflection-check", "--p", "2", "--max-d", "3000"],
     "a9c2549388c5eb9637aab2116360095212eb5e00dc6d8ef6b2e18f7e8b84d5cf"),
    (["tor-family", "--p", "2", "--count", "9"],
     "8c3da413f7e7e420512d90e9c980267afaaee7c16a12b0cd9ecdaf1e9b8211a0"),
    (["quad-maxima", "--stat", "genus", "--eps", "0.05", "--max-d", "20000"],
     "7dddb92db559d1077be59646202d2f55400965b155410f6138c0295e3e484036"),
    (["tor-scan", "--p", "2", "--min-d", "1000000", "--max-d", "1000200",
      "--workers", "2"],
     "425eb0ae2d35b4b94eda75efe2fe8727b28549eb0cb1d08c358edd0c495bb935"),
    (["quad-scan", "--stat", "p-exponent", "--p", "3", "--max-d", "20000"],
     "7f7ec32c579fcb14b7ed1c7da67e56ab3fc4140c9e3324724e548705ab3b42b5"),
    (["cubic-enum", "--max-f", "3000"],
     "82eb82b18f32f27647e07bb533353ddcb7ef009f67686e86d609f28c24d81246"),
    (["filtration-mc", "--p", "3", "--n", "4", "--samples", "100"],
     "28f7be7c3fb331740935874e256fb4bd2473b36ba8cac83717e8a7235f85ea36"),
    (["filtration-mc", "--p", "2", "--n", "5", "--samples", "100"],
     "7099294f9dc8f1fde7ad8626862e3261e06e2d8eb6de2f3c7b3a3c6c0ceb90fc"),
    (["filtration-mc", "--p", "5", "--n", "3", "--samples", "50"],
     "1f6da2a2e6df702e68e5b8235b58819f729e48139505a82eb5b869aa88cffb77"),
    (["tor-scan", "--p", "3", "--min-d", "3", "--max-d", "3000"],
     "b70ccbf27b26f0d3a7f1511ef95a2f441838ab187fb8e1e92bac5da6a389abf1"),
    (["filtration-run", "--p", "3", "--n", "4", "--seed", "7"],
     "3d667307edf621d3c5f4a01b0b10046dd27aaacb2c06bd72894fa4bc2a732bf4"),
    (["filtration-run", "--d", "4849845"],
     "df6428c5c8e53e485151188a908d8049a6cec420a8bcfc9a8d3c7670c69904ce"),
    # three class-group outputs above ENUM_CAP = 10^7
    (["normic-search", "--p", "2", "--rho", "3", "--q", "7", "--max-a", "40"],
     "a21a49e2b724da2ebd7892c995c4a6206c1ca83e5f9fcd11095746e9b97c8fa4"),
    (["tor-scan", "--p", "2", "--min-d", "10000000", "--max-d", "10000400"],
     "87139edc5c0d391bbd32f6ef9e0a9080a5039345afe4bb1e2f5f622191925e86"),
    (["filtration-run", "--d", "-20000000003"],
     "f51470874e0e46fc66cf597ad5765edc19c84b18247af631cf9d8d3690778f63"),
    # odd p >= 5, where the log series is shortest against its old kmax
    (["tor-scan", "--p", "5", "--min-d", "3", "--max-d", "3000"],
     "98313c148b099bba4a46e2ba1bcf17530508fc2371a6875b9f0ec83d0c3c5d30"),
    (["tor-scan", "--p", "7", "--min-d", "3", "--max-d", "3000"],
     "a5a107e28ad130ff9e4d93ae36883787e596c6f0152b193b25a7ed65a118bf31"),
    # the largest p, whose (O/31^n)^x tops are boxes of 961 points: no
    # field up to 600 reaches v_31(#T) >= 1, so this pins that no row, not
    # even an error row, is printed
    (["tor-scan", "--p", "31", "--min-d", "3", "--max-d", "600"],
     "9066a08ef326e967cd684b5e2f90a74df7ed4dfc015aa81675e10b8aedc8c596"),
    # the successive maxima at 10^6 of the two statistics above not yet
    # pinned: a float filter margin and an exact h_p
    (["quad-maxima", "--stat", "raw", "--eps", "0.1", "--max-d", "1000000"],
     "6afdec76a79bd5835ff0c39700b0b29395f1b5c99d57f49c67591e73a5724068"),
    (["quad-maxima", "--stat", "p-exponent", "--p", "2", "--max-d",
      "1000000"],
     "344c6e124d2c7bdfec25fe109165ab1bceb0cc92ffb6fb633752bbc01b992755"),
    # 912 fields of every kind that Redei's 4-rank sorts (510 with Delta =
    # 0: D odd, 8 | D and D = 4 mod 8), hashed before that route skipped h
    (["tor-scan", "--p", "2", "--min-d", "1000000", "--max-d", "1003000"],
     "1cf6f467ff805a971f8f2e01ce566bbaef667b6b8a62bd3488eb105886ecdf69"),
]


def _golden_ids():
    # a command's first entry is named by the command alone, later ones
    # by their first option too (tor-scan, tor-scan-p-3), and by as many
    # more options as tell them apart: tor-scan-p-2-min-d-1000000
    ids = []
    for argv, _ in GOLDEN_STDOUT:
        k = 1
        while (name := "-".join(a.lstrip("-") for a in argv[:k])) in ids:
            k += 2
        ids.append(name)
    return ids


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=_golden_ids())
def test_golden_stdout(argv, digest, capsys):
    code, out = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
