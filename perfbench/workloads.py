"""The benchmark's workloads: item lists, the program call per item, and
the checks on its outputs.

A workload makes its items from the seed (`items`), builds what a user of
it pays for once (`prepare`), and runs one item through the program's
public functions (`run`).  `references` computes, outside the timed
passes, what `check` compares each output with.  `extra_checks` are the
checks that are not about one item: set-up tables, the CLI's determinism
across ``--workers``, and cross-checks on a sample.  It returns
``(label, check)`` pairs, `check` a callable returning a bool; every pair
is one operation, which fails if the callable returns False or raises.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from math import log
from typing import Callable

import reference as ref
from epsclass import cli, filtration, pram, quadclass


def cli_rows(argv: list[str]) -> list[list[str]]:
    """Run the CLI in this process and return its CSV rows (config comment
    lines and the header row dropped)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"epsclass {' '.join(argv)} exited with {code}")
    lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def deterministic_rows(argv: list[str], want: list[list[str]],
                       workers: bool = True) -> bool:
    """The command prints `want`, twice: with --workers 1 and 2, or (for a
    command without --workers) in two reruns."""
    if workers:
        runs = [argv + ["--workers", "1"], argv + ["--workers", "2"]]
    else:
        runs = [argv, argv]
    return all(cli_rows(a) == want for a in runs)


def fmt(x: float) -> str:
    """A float as the CLI prints it."""
    return f"{x:.20g}"


class Workload:
    name = ""
    # Seconds one pass over the items takes on a 2-core machine; the
    # number of passes in a run is fixed from it (at least 3, so that the
    # median across passes can discard one disturbed pass), and every run
    # with the same --seconds attempts the same operations.
    pass_s = 1.0

    def items(self, seed: int, smoke: bool) -> list:
        raise NotImplementedError

    def prepare(self, smoke: bool):
        return None

    def run(self, item, state):
        raise NotImplementedError

    def references(self, items: list, state, seed: int, smoke: bool):
        return None

    def check(self, item, out, refs) -> bool:
        raise NotImplementedError

    def extra_checks(self, items: list, passes: list[list], state, refs,
                     seed: int, smoke: bool) -> list[tuple[str, Callable]]:
        return []


# ------------------------------------------------------------ classgroups

class ClassGroups(Workload):
    """Imaginary class groups on a seeded sample of 1e5 <= |D| <= 1e6."""

    name = "classgroups"
    pass_s = 4.0
    SAMPLE = 600
    RANGE = (10 ** 5, 10 ** 6)

    def items(self, seed, smoke):
        rng = random.Random(seed)
        lo, hi = self.RANGE
        n = 6 if smoke else self.SAMPLE
        width = (hi - lo) // n
        out = []
        for k in range(n):       # one field per stratum of the range
            while True:
                d = rng.randrange(lo + k * width, lo + (k + 1) * width)
                if ref.is_fundamental(-d):
                    out.append(-d)
                    break
        return out + sorted(ref.CLASS_GROUP_ANCHORS)

    def prepare(self, smoke):
        # the sieves and successive-maxima tables, as quad-maxima builds them
        X = 2 * 10 ** 4 if smoke else 10 ** 6
        arrays = quadclass.scan_arrays(X)
        return {
            "genus": quadclass.scan_local_maxima(X, "genus_normalized", 0.05,
                                                 arrays=arrays),
            3: quadclass.scan_local_maxima(X, "p_exponent", p=3, arrays=arrays),
            2: quadclass.scan_local_maxima(X, "p_exponent", p=2, arrays=arrays),
        }

    def run(self, D, state):
        return quadclass.class_group_imaginary(D)

    def cli_max_d(self, smoke):
        return 5000 if smoke else 20000

    def references(self, items, state, seed, smoke):
        counter = ref.FormCounter(max(-min(items), self.cli_max_d(smoke)))
        return {"counter": counter,
                "items": {D: (counter.class_number(D), ref.omega(-D))
                          for D in items}}

    def check(self, D, g, refs):
        h, om = refs["items"][D]
        want = ref.CLASS_GROUP_ANCHORS.get(D)
        return (g.order == h and g.p_rank(2) == om - 1
                and (want is None or str(g) == want))

    def extra_checks(self, items, passes, state, refs, seed, smoke):
        def genus_rows():
            recs = state["genus"]
            return len(recs) >= len(ref.GENUS_ROWS) and all(
                (r.d, r.h) == (D, h) and ref.agrees(r.stat, C)
                for r, (D, h, C) in zip(recs, ref.GENUS_ROWS))

        def p_rows(p):
            recs, rows = state[p], ref.P_EXPONENT_ROWS[p]
            return len(recs) >= len(rows) and all(
                (r.d, r.hp) == (D, hp)
                and (abs(r.stat - C) <= 1e-6 if p == 3 else ref.agrees(r.stat, C))
                for r, (D, hp, C) in zip(recs, rows))

        def quad_maxima():
            # over [3, X] its rows are the set-up table's prefix, with h
            # equal to the form count
            X = self.cli_max_d(smoke)
            want = [[str(r.d), str(r.h), str(r.n), fmt(r.stat),
                     str(int(r.is_prime_disc)), "", ""]
                    for r in state["genus"] if -r.d <= X]
            return all(refs["counter"].class_number(int(r[0])) == int(r[1])
                       for r in want) and deterministic_rows(
                ["quad-maxima", "--stat", "genus", "--eps", "0.05",
                 "--max-d", str(X)], want)

        return [("genus maxima rows", genus_rows),
                ("p=3 maxima rows", lambda: p_rows(3)),
                ("p=2 maxima rows", lambda: p_rows(2)),
                ("quad-maxima rows, --workers 1 and 2", quad_maxima)]


# ---------------------------------------------------------- torsion-large

def _vptor_cp(D: int, v: int) -> float:
    return v * log(2) / log((-D) ** 0.5)


def _running_maxima(pairs):
    """Rows tor-scan prints: (D, vptor) whenever vptor reaches the maximum."""
    out, best = [], 0
    for D, v in pairs:
        best = max(best, v)
        if v >= max(best, 1):
            out.append((D, v))
    return out


class TorsionLarge(Workload):
    """The 2-ramification scan step on consecutive fields above 1e6."""

    name = "torsion-large"
    pass_s = 5.0
    ITEMS = 200
    BSGS_SAMPLE = 8

    def window(self, smoke):
        lo, hi = ref.TOR_SCAN_WINDOW
        return lo, (lo + 40 if smoke else hi)

    def items(self, seed, smoke):
        lo, hi = self.window(smoke)
        out = [-d for d in range(lo, hi + 1) if ref.is_fundamental(-d)]
        if not smoke:
            # a second consecutive block at a seeded start
            d = random.Random(seed).randrange(hi + 1, 12 * 10 ** 5)
            while len(out) < self.ITEMS:
                if ref.is_fundamental(-d):
                    out.append(-d)
                d += 1
        return out + [ref.TOR_ANCHOR[0]]

    def run(self, D, state):
        return pram.program_vptor(D, 2, 20)

    def check(self, D, v, refs):
        if D == ref.TOR_ANCHOR[0]:
            _, want_v, want_cp = ref.TOR_ANCHOR
            return v == want_v and ref.agrees(_vptor_cp(D, v), want_cp)
        return isinstance(v, int)

    def extra_checks(self, items, passes, state, refs, seed, smoke):
        lo, hi = self.window(smoke)
        out = []
        for k, outs in enumerate(passes):
            want = [r for r in ref.TOR_SCAN_ROWS if -r[0] <= hi]
            pairs = [(D, v) for D, v in zip(items, outs) if lo <= -D <= hi]
            out.append((f"pass {k}: scan maxima rows",
                        lambda pairs=pairs, want=want:
                        _running_maxima(pairs) == want))
        # class numbers behind the BSGS route, on a seeded sample
        pool = [D for D in items if D != ref.TOR_ANCHOR[0]]
        sample = random.Random(seed).sample(pool, 2 if smoke else self.BSGS_SAMPLE)
        counter = ref.FormCounter(-min(sample))
        for D in sample:
            out.append((f"class_number_bsgs({D})", lambda D=D:
                        quadclass.class_number_bsgs(D)[0] == counter.class_number(D)))

        def tor_scan():
            # over a sub-range: the running maxima of the per-item results
            top = lo + (30 if smoke else 60)
            want = [[str(D), str(D // 4 if D % 4 == 0 else D), str(v),
                     fmt(_vptor_cp(D, v)), ""]
                    for D, v in _running_maxima(
                        (D, v) for D, v in zip(items, passes[0])
                        if lo <= -D <= top)]
            return deterministic_rows(["tor-scan", "--p", "2", "--min-d",
                                       str(lo), "--max-d", str(top)], want)

        return out + [("tor-scan rows, --workers 1 and 2", tor_scan)]


# ---------------------------------------------------------- torsion-small

class TorsionSmall(Workload):
    """Reflection identities and rank inequalities on every small field."""

    name = "torsion-small"
    pass_s = 7.0
    MAX_ABS_D = 2000

    def items(self, seed, smoke):
        top = 60 if smoke else self.MAX_ABS_D
        out = []
        for d in range(3, top + 1):
            if ref.is_fundamental(-d):
                out.append(("reflection", -d))
            if ref.is_fundamental(d):
                out.append(("ranks", d))
        out += [("tor", D) for D in ref.TOR_REPORT_ANCHORS]
        random.Random(seed).shuffle(out)
        return out

    def run(self, item, state):
        kind, D = item
        if kind == "reflection":
            return pram.reflection_check(D, 2)
        if kind == "ranks":
            return pram.rank_inequalities(D, 2)
        return pram.tor_report(D, 2)

    def check(self, item, out, refs):
        kind, D = item
        if kind == "reflection":
            return out is True
        if kind == "ranks":
            return out.upper_ok and out.lower_ok
        T, cp = ref.TOR_REPORT_ANCHORS[D]
        return str(out.tor_structure) == T and ref.agrees(out.c_tilde, cp)

    def extra_checks(self, items, passes, state, refs, seed, smoke):
        def reflection_check():
            # reflection-check takes no --workers: two reruns instead
            X = 60 if smoke else 300
            want = sorted(([str(D), str(int(ok))]
                           for (kind, D), ok in zip(items, passes[0])
                           if kind == "reflection" and -D <= X),
                          key=lambda r: -int(r[0]))
            return deterministic_rows(["reflection-check", "--p", "2",
                                       "--max-d", str(X)], want, workers=False)

        return [("reflection-check rows, two reruns", reflection_check)]


# ------------------------------------------------------------- filtration

class Filtration(Workload):
    """Synthesized p = 3 modules through both filtration routes."""

    name = "filtration"
    pass_s = 9.0
    MODULES = 200
    MAX_ORDER = 3 ** 8

    def items(self, seed, smoke):
        # Criterion 7's draws: module seeds 0, 1, 2, ...  The cost of one
        # module has a heavy tail (synthesize retries until #M^G fits), so
        # seeded samples of 200 moved items_per_s by 20% between seeds; the
        # list is fixed and the seed orders it.
        out = list(range(4 if smoke else self.MODULES))
        random.Random(seed).shuffle(out)
        return out

    def run(self, s, state):
        # one step of the draw in criterion 7: N, the module, both routes
        N = random.Random(s).choice([2, 3, 4])
        M = filtration.synthesize(3, N, s)
        if filtration.module_order(M) > self.MAX_ORDER:
            return None
        return (filtration.filtration(M, N),
                filtration.filtration_iterated(M, N))

    def check(self, s, out, refs):
        if out is None:
            return True
        direct, iterated = out
        return direct == iterated and filtration.order_identity_check(direct)


WORKLOADS = {w.name: w for w in (ClassGroups(), TorsionLarge(), TorsionSmall(),
                                 Filtration())}
