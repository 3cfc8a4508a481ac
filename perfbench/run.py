"""Benchmark of epsclass: class groups, torsion scans and filtrations.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs in one process from the root of a checkout, against the sources in
``src/``.  It makes the workload's items from the seed, sets up, runs a
fixed number of timed passes over every item (the number follows from
--seconds), checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (items_per_s,
item_p50_ms, item_p95_ms, setup_s, peak_rss_mb).  Times are reported in
reference seconds: each stretch of measured time is scaled by how long a
fixed pure-Python probe loop takes around it, so that the shared
machine's changing speed does not show as a change of the program.

With ``--trace 1`` the public functions of every layer are wrapped (see
layertrace.py) for one extra pass, and the metrics are calls and self
time per item of each layer, plus the tracing overhead against the
untraced passes of the same run.  ``--smoke`` runs tiny item lists once,
for the tests.
"""

from __future__ import annotations

import time


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t


T0 = time.perf_counter()   # set-up time is measured from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 5          # set-ups per run; setup_s is their median
# Times are reported in reference seconds: measured seconds scaled by
# PROBE_REF_S over what `probe` takes at that moment (6 ms is its median
# on the 2-core machine the bounds were set on).
PROBE_REF_S = 0.006
PROBE_EVERY_S = 0.2     # seconds of items between two probes in a pass

END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms",
                    "item_p95_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class Failure:
    """An item whose program call raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def load_workloads():
    """Import the program from ``src/`` next to the benchmark."""
    if not (SRC / "epsclass" / "__init__.py").is_file():
        raise FileNotFoundError(f"no epsclass sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads.WORKLOADS


def timed_passes(wl, items, state, passes):
    """Per-item times [item][pass], outputs [pass][item], pass times, all
    in reference seconds, and the measured seconds of each pass.

    A probe runs before the first item, after every PROBE_EVERY_S of
    items and after the last; the items between two probes are scaled by
    the median of the four probes around them."""
    times = [[0.0] * passes for _ in items]
    outputs, pass_s, measured_s = [], [], []
    for k in range(passes):
        gc.collect()
        outs, raw = [], []
        marks, probes = [0], [probe()]
        since = 0.0
        for i, item in enumerate(items):
            t = time.perf_counter()
            try:
                out = wl.run(item, state)
            except Exception as exc:   # counted as a failed operation
                out = Failure(exc)
            dt = time.perf_counter() - t
            raw.append(dt)
            outs.append(out)
            since += dt
            if since >= PROBE_EVERY_S or i == len(items) - 1:
                marks.append(i + 1)
                probes.append(probe())
                since = 0.0
        for j in range(len(marks) - 1):
            scale = PROBE_REF_S / statistics.median(probes[max(0, j - 1):j + 3])
            for i in range(marks[j], marks[j + 1]):
                times[i][k] = raw[i] * scale
        pass_s.append(sum(times[i][k] for i in range(len(items))))
        measured_s.append(sum(raw))
        outputs.append(outs)
    return times, outputs, pass_s, measured_s


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def op(self, label, ok: bool, raised: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += not raised
            print(f"FAILED {label}", file=sys.stderr)


def check_outputs(wl, items, outputs, refs, extra, tally: Tally) -> None:
    """Every item of every pass is one operation; so is every extra check.

    An item fails if it raised, if its check fails, or if its output
    differs from the first pass's."""
    for outs in outputs:
        for i, (item, out) in enumerate(zip(items, outs)):
            if isinstance(out, Failure):
                tally.op(f"{item!r}: {out.message}", False, raised=True)
                continue
            ok = out == outputs[0][i] and wl.check(item, out, refs)
            tally.op(f"{item!r}: got {out!r}", ok)
    for label, check in extra:
        try:
            ok = bool(check())
        except Exception as exc:   # counted as a failed operation
            tally.op(f"{label}: {type(exc).__name__}: {exc}", False, raised=True)
            continue
        tally.op(label, ok)


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running this benchmark."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def pass_count(wl, seconds: int, smoke: bool) -> int:
    return 1 if smoke else max(3, round(seconds / wl.pass_s))


def percentile95(xs):
    return statistics.quantiles(xs, n=20, method="inclusive")[-1]


def result(tally: Tally, metrics: dict, units: dict) -> dict:
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run(args, workloads) -> dict:
    wl = workloads[args.workload]
    items = wl.items(args.seed, args.smoke)
    state = wl.prepare(args.smoke)
    wl.run(items[0], state)                    # warm-up item
    setup_s = time.perf_counter() - T0
    # scaled by probes taken right after it: a probe in a process that has
    # just started reads the interpreter's warm-up, not the machine's speed
    setup_s *= PROBE_REF_S / statistics.median(probe() for _ in range(5))
    if args.setup_only:
        return {"setup_s": setup_s}

    passes = pass_count(wl, args.seconds, args.smoke)
    if args.trace:
        passes = max(1, passes // 2)
    times, outputs, pass_s, measured_s = timed_passes(wl, items, state, passes)
    # the program's peak, before the benchmark's own reference computations
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"measured: {len(items) / statistics.median(measured_s):.4g} items/s, "
          f"{len(items) / statistics.median(pass_s):.4g} at the reference speed",
          file=sys.stderr)

    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced_state = wl.prepare(args.smoke)
            _, traced_out, traced_s, traced_measured = timed_passes(
                wl, items, traced_state, 1)
        finally:
            tracer.uninstall()
        outputs += traced_out
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.npz")

    refs = wl.references(items, state, args.seed, args.smoke)
    extra = wl.extra_checks(items, outputs, state, refs, args.seed, args.smoke)
    tally = Tally()
    check_outputs(wl, items, outputs, refs, extra, tally)

    if args.trace:
        metrics = tracer.layer_metrics(len(items),
                                       traced_s[0] / traced_measured[0])
        metrics["trace.overhead_pct"] = 100 * (
            traced_s[0] / statistics.median(pass_s) - 1)
        return result(tally, metrics, layertrace.layer_metric_units())

    per_item = [statistics.median(t) for t in times]
    setups = [setup_s]
    if not args.smoke:
        setups += [child_setup_s(wl.name, args.seed)
                   for _ in range(SETUP_RUNS - 1)]
    metrics = {
        "items_per_s": len(items) / statistics.median(pass_s),
        "item_p50_ms": 1e3 * statistics.median(per_item),
        "item_p95_ms": 1e3 * percentile95(per_item),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return result(tally, metrics, END_TO_END_UNITS)


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny item lists and one pass")
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and stop")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    try:
        workloads = load_workloads()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, sorted(workloads))
    print(json.dumps(run(args, workloads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
