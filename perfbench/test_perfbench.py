"""Tests of the benchmark itself, on its smoke mode (tiny item lists, one
pass, no set-up subprocesses)."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(capsys, *argv):
    """Run the benchmark in this process: (result, standard error)."""
    code = run.main(["--seed", "5", "--smoke", *argv])
    out, err = capsys.readouterr()
    assert code == 0
    return json.loads(out.strip().splitlines()[-1]), err


def units(specs):
    return {m["name"]: m["unit"] for m in specs}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_pass(capsys, workload):
    res, _ = bench(capsys, "--workload", workload, "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer(capsys, monkeypatch, tmp_path):
    from epsclass import quadclass, quadforms
    compose = quadforms.compose
    monkeypatch.setattr(run, "OUT", tmp_path)
    res, _ = bench(capsys, "--workload", "torsion-small", "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units(SPEC["per_layer"]) == layertrace.layer_metric_units()
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["pram.tor_report.calls"] > 0
    assert m["quadclass.narrow_presentation.calls"] > 0
    assert m["filtration.synthesize.calls"] == 0
    assert (tmp_path / "spans-torsion-small-seed5.npz").is_file()
    # the wrappers are gone again, in every module that imported the name
    assert quadforms.compose is compose and quadclass.compose is compose


def test_self_time_excludes_nested_spans():
    from epsclass import quadclass
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        quadclass.class_group_imaginary(-15015)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1)
    assert m["quadclass.imaginary_presentation.calls"] == 1
    assert m["quadforms.compose.calls"] > 0
    # self times add up to the time spent under the outermost spans
    top_ms = 1e3 * sum(end - start for start, end, parent in zip(
        tracer.span_start, tracer.span_end, tracer.span_parent) if parent < 0)
    total_self = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert total_self == pytest.approx(top_ms, rel=1e-9)
    assert 0 < m["quadclass.imaginary_presentation.self_ms"] < top_ms


def test_wrong_reference_is_counted(capsys, monkeypatch):
    monkeypatch.setitem(reference.CLASS_GROUP_ANCHORS, -15015, "[6,2,2,2]")
    res, err = bench(capsys, "--workload", "classgroups", "--trace", "0")
    assert res["failed"] == 1 and not res["correct"]
    assert "FAILED -15015" in err


def test_form_counter_matches_program():
    from epsclass.quadforms import class_number_imaginary
    counter = reference.FormCounter(3000)
    for D in range(-3, -3001, -1):
        if D % 4 in (0, 1):
            assert counter.class_number(D) == class_number_imaginary(D), D


def test_missing_sources_fail_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "filtration", "--seed", "1"])
    assert code != 0 and capsys.readouterr().out == ""


def test_check_that_raises_is_counted(capsys, monkeypatch):
    import workloads
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 3)
    res, err = bench(capsys, "--workload", "torsion-small", "--trace", "0")
    assert res["failed"] == 1 and res["correct"]
    assert "reflection-check" in err and "exited with 3" in err
