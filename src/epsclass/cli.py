"""Command-line surface: reproducible scans and tables as CSV/JSON.

Every output starts with a config header (tool version plus the full
argument set) so that a run can be reproduced byte-for-byte.  Decimals are
printed with 20 significant digits.  Scans shard deterministically under
``--workers``.  Exit codes: 0 ok, 1 validation failure, 2 usage (a bad
argument, reported on stderr before anything is printed), 3 budget, 141
(128 + SIGPIPE) when the reader closes the output pipe, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from math import ceil, isfinite, log10

from . import __version__, cubic, epsanalysis, filtration, pram, quadclass
from .arith import FactorBudgetError, is_prime, mv_bounds_hold, primes_in_class
from .quadclass import ClassNumberCapError

_STATS = {"genus": "genus_normalized", "raw": "raw",
          "p-exponent": "p_exponent"}


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.20g}"
    if x is None:
        return ""
    return str(x)


def _config_items(args, extra=None):
    skip = {"func", "output", "format"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg.update(extra or {})
    return {k: _fmt(v) for k, v in sorted(cfg.items())}


def _emit(args, fieldnames, rows, extra=None) -> None:
    cfg = _config_items(args, extra)
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        if args.format == "json":
            # json.dump(doc, sort_keys=True)'s bytes, a row at a time; the
            # config values are strings, so "rows":[] appears only once
            doc = {"tool": "epsclass", "version": __version__, "config": cfg,
                   "fields": list(fieldnames), "rows": []}
            head, tail = json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")).split('"rows":[]')
            out.write(head + '"rows":[')
            for i, r in enumerate(rows):
                out.write(("," if i else "") + json.dumps(
                    [_fmt(v) for v in r], separators=(",", ":")))
            out.write("]" + tail + "\n")
        else:
            out.write(f"# epsclass {__version__}\n")
            out.write("# " + " ".join(f"{k}={v}" for k, v in cfg.items()) + "\n")
            w = csv.writer(out, lineterminator="\n")
            w.writerow(fieldnames)
            for r in rows:
                w.writerow([_fmt(v) for v in r])
    finally:
        if args.output:
            out.close()


def _shards(lo: int, hi: int, k: int):
    step = max(1, (hi - lo + 1 + k - 1) // k)
    return [(a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step)]


# module-level shard workers so ProcessPoolExecutor can pickle them

def _sieve_shard(t):
    X, shard, shards = t
    return quadclass.batch_class_numbers_imaginary(X, shard, shards)


def _tor_shard(t):
    lo, hi, p, n = t
    return pram.tor_scan(lo, hi, p, n)


def _run_shards(worker, jobs, workers: int) -> list:
    # a fork pool starts every process at its first submit: none idle
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(worker, jobs))
    return [worker(j) for j in jobs]


def _scan_rows(records):
    return [(r.d, r.h, r.n, r.stat, int(r.is_prime_disc),
             str(r.structure) if r.structure else "", r.error or "")
            for r in records]


_SCAN_FIELDS = ("D", "h", "n", "stat", "prime", "structure", "error")


# ----------------------------------------------------------------- commands

def cmd_primes(args) -> int:
    seq = primes_in_class(args.p, args.count)
    rows = [(k, ell) for k, ell in enumerate(seq.primes, start=1)]
    extra = {}
    if args.mv:
        rep = mv_bounds_hold(args.count, args.p)
        extra = {"mv_holds": rep.holds,
                 "mv_first_violation": rep.first_violation or ""}
    _emit(args, ("k", "ell"), rows, extra)
    return 0 if not args.mv or rep.holds else 1


def _quad_arrays(args):
    # the budget and the --eps range before any table; the sieve split
    # over a, one interleaved shard per worker, and the shards' tables
    # summed into one.  X^(|eps|/2 + 1) finite keeps d^(eps/2), and the
    # statistic, finite and nonzero for every d <= X
    X = args.max_d
    quadclass.scan_budget(X)
    try:
        float(X) ** (abs(args.eps) / 2 + 1)
    except OverflowError:
        raise ValueError(f"--eps {args.eps} is out of range for --max-d {X}:"
                         f" {X}^(|eps|/2 + 1) overflows a float") from None
    k = min(args.workers, os.cpu_count() or 1)
    h, *rest = _run_shards(_sieve_shard, [(X, j, k) for j in range(k)], k)
    for t in rest:
        h += t
    return quadclass.scan_arrays(X, h)


def cmd_quad_scan(args) -> int:
    stat = _STATS[args.stat]
    fields = quadclass.scan_fields(args.min_d, args.max_d, _quad_arrays(args))
    # a generator: _emit writes each row as it is made
    _emit(args, _SCAN_FIELDS, (
        (-d, h, N, quadclass.scan_statistic(stat, d, h, N, args.eps, args.p),
         int(prime), "", "") for d, h, N, prime in fields))
    return 0


def cmd_quad_maxima(args) -> int:
    recs = quadclass.scan_candidates(args.min_d, args.max_d, _STATS[args.stat],
                                     args.eps, args.p, _quad_arrays(args))
    _emit(args, _SCAN_FIELDS, _scan_rows(recs))
    return 0


def cmd_cubic_enum(args) -> int:
    if args.f is not None:
        flds = cubic.cubic_polynomials(args.f)
        rows = [(f.f, f.a, f.b, f.poly_str(),
                 int(cubic.discriminant_filter(f))) for f in flds]
        _emit(args, ("f", "a", "b", "poly", "disc_ok"), rows)
        return 0
    rows = []
    for f in cubic.enumerate_conductors(args.max_f):
        n = len(cubic.cubic_polynomials(f))
        rows.append((f, n, cubic.ambiguous_number(f, 3)))
    _emit(args, ("f", "count", "ambiguous"), rows)
    return 0


def cmd_cubic_validate(args) -> int:
    rep = cubic.validate_all(args.fixtures)
    rows = [(str(p), ln, msg) for p, ln, msg in rep.failures]
    _emit(args, ("path", "line", "message"), rows,
          {"files": rep.files, "rows": rep.rows, "ok": rep.ok})
    return 0 if rep.ok else 1


def cmd_fixtures_check(args) -> int:
    files = cubic.load_all_fixtures(args.fixtures)
    rows = [(str(ff.path), ff.p, ff.conductor or "", len(ff.fixtures))
            for ff in files]
    _emit(args, ("path", "p", "conductor", "rows"), rows)
    return 0


def cmd_filtration_run(args) -> int:
    if args.d is not None:
        M, N = filtration.from_quadratic(args.d)
    else:
        M = filtration.synthesize(args.p, args.n, args.seed)
        N = args.n
    direct = filtration.filtration(M, N)
    iterated = filtration.filtration_iterated(M, N)
    ok = direct == iterated and filtration.order_identity_check(direct)
    rows = [(i, o, t) for i, (o, t) in
            enumerate(zip(direct.chain, direct.t))]
    _emit(args, ("i", "order", "t"), rows,
          {"routes_agree": direct == iterated, "identity_ok": ok, "N": N})
    return 0 if ok else 1


def cmd_filtration_mc(args) -> int:
    hist = filtration.mc_delta_histogram(args.p, args.n, args.samples,
                                         args.seed)
    rows = sorted((int(k), v) for k, v in hist["histogram"].items())
    _emit(args, ("delta", "count"), rows)
    return 0


def cmd_tor_scan(args) -> int:
    pram.tor_scan_budget(args.min_d, args.max_d)    # before any shard
    n = args.n or pram.scan_level(args.p)
    jobs = [(lo, hi, args.p, n)
            for lo, hi in _shards(args.min_d, args.max_d, args.workers)]
    recs = pram.merge_tor_maxima(_run_shards(_tor_shard, jobs, args.workers))
    rows = [(r.D, r.m, r.vptor, r.cp, r.error or "") for r in recs]
    _emit(args, ("D", "m", "vptor", "cp", "error"), rows, {"n": n})
    return 0


def cmd_tor_family(args) -> int:
    reps = pram.tor_family(args.p, args.count)
    rows = [(i, m, str(rep.tor_structure), rep.vp, rep.w_order,
             rep.c_tilde, rep.stabilized_level)
            for i, (m, rep) in
            enumerate(zip(pram.family_radicands(args.count), reps), start=1)]
    _emit(args, ("N", "m", "structure", "vp", "w", "c_tilde", "level"), rows)
    return 0


def cmd_reflection_check(args) -> int:
    rows = []
    bad = 0
    for d in range(3, args.max_d + 1):
        disc = pram.is_fundamental_neg(d)
        if disc is None:
            continue
        ok = pram.reflection_check(disc, args.p)
        bad += not ok
        rows.append((-d, int(ok)))
    _emit(args, ("D", "ok"), rows, {"checked": len(rows), "failures": bad})
    return 0 if bad == 0 else 1


def cmd_normic_search(args) -> int:
    recs = quadclass.normic_search(args.p, args.rho, args.q, args.max_a)
    _emit(args, _SCAN_FIELDS, _scan_rows(recs))
    return 0


def cmd_bounds(args) -> int:
    params = epsanalysis.BoundParams(args.p, args.eps, args.o1, args.c)
    n0, x0max = epsanalysis.find_N0(params)
    rows = []
    for k in range(1, ceil(log10(n0)) + 2):
        rep = epsanalysis.bound_report(float(10 ** k), params, args.delta,
                                       args.cp)
        rows.append((rep.N, rep.X, rep.X0, rep.Y0_lower, rep.logC_required))
    _emit(args, ("N", "X", "X0", "Y0", "logC_required"), rows,
          {"N0": n0, "X0max": x0max})
    return 0


# ------------------------------------------------------------------ parsing

def _int_at_least(lo: int):
    def parse(text: str) -> int:
        v = int(text)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {v}")
        return v
    return parse


_positive_int = _int_at_least(1)


def _finite_float(text: str) -> float:
    v = float(text)
    if not isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {v}")
    return v


def _positive_float(text: str) -> float:
    v = _finite_float(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {v}")
    return v


def _prime(text: str) -> int:
    v = int(text)
    if not is_prime(v):
        raise argparse.ArgumentTypeError(f"must be a prime, got {v}")
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="epsclass", description=__doc__)
    ap.add_argument("--version", action="version",
                    version=f"epsclass {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None)
        return p

    p = add("primes", cmd_primes, help="primes l = 1 mod p in order")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--mv", action="store_true",
                   help="also verify both prime-counting inequalities")

    for name, fn in (("quad-scan", cmd_quad_scan),
                     ("quad-maxima", cmd_quad_maxima)):
        p = add(name, fn, help="imaginary class-number statistics")
        p.add_argument("--stat", choices=sorted(_STATS), default="genus")
        p.add_argument("--eps", type=_finite_float, default=0.0)
        p.add_argument("--p", type=_prime, default=3)
        p.add_argument("--min-d", type=int, default=3)
        p.add_argument("--max-d", type=_int_at_least(3), required=True)
        p.add_argument("--workers", type=_positive_int, default=1)

    p = add("cubic-enum", cmd_cubic_enum, help="cyclic cubic fields")
    g = p.add_mutually_exclusive_group(required=True)
    # 7 is the smallest cyclic cubic conductor
    g.add_argument("--f", type=_int_at_least(7))
    g.add_argument("--max-f", type=_int_at_least(7))

    p = add("cubic-validate", cmd_cubic_validate, help="validate fixtures")
    p.add_argument("--fixtures", default=None)

    p = add("fixtures-check", cmd_fixtures_check, help="parse fixtures only")
    p.add_argument("--fixtures", default=None)

    p = add("filtration-run", cmd_filtration_run,
            help="dual-route filtration of one module")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--d", type=int)
    g.add_argument("--p", type=_prime)
    p.add_argument("--n", type=_int_at_least(2), default=3)
    p.add_argument("--seed", type=int, default=0)

    p = add("filtration-mc", cmd_filtration_mc,
            help="Monte-Carlo Delta histogram")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("tor-scan", cmd_tor_scan, help="torsion valuation scan")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--min-d", type=int, required=True)
    p.add_argument("--max-d", type=_int_at_least(3), required=True)
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)

    # the tabulated family, and the reflection identity (mu_p in K for
    # every imaginary K), are p = 2 statements
    p = add("tor-family", cmd_tor_family, help="odd-primorial family torsion")
    p.add_argument("--p", type=int, choices=(2,), default=2)
    p.add_argument("--count", type=_positive_int, default=5)

    p = add("reflection-check", cmd_reflection_check,
            help="rank reflection identity")
    p.add_argument("--p", type=int, choices=(2,), default=2)
    p.add_argument("--max-d", type=_int_at_least(3), required=True)

    p = add("normic-search", cmd_normic_search,
            help="a^2 + m b^2 = 4 q^(p^rho) search")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--rho", type=_int_at_least(0), required=True)
    p.add_argument("--q", type=_int_at_least(2), required=True)
    p.add_argument("--max-a", type=_positive_int, default=None)

    p = add("bounds", cmd_bounds, help="analytic bound table")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--o1", type=_finite_float, default=0.0)
    p.add_argument("--c", type=_finite_float, default=None)
    p.add_argument("--delta", type=_finite_float, default=0.0)
    p.add_argument("--cp", type=_positive_float, default=1.0,
                   help="c_p constant for the lower bound")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # tor-scan, quad-scan and quad-maxima: an inverted range is a usage
        # error, not an empty table
        if getattr(args, "min_d", 0) > getattr(args, "max_d", 0):
            raise ValueError(f"--min-d {args.min_d} exceeds "
                             f"--max-d {args.max_d}")
        code = args.func(args)
        sys.stdout.flush()    # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly with the status
        # of a tool stopped by SIGPIPE, stdout on devnull so that the
        # interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (FactorBudgetError, ClassNumberCapError) as exc:
        print(f"epsclass: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except cubic.FixtureParseError as exc:  # a malformed fixture tree
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:    # a bad argument or --output
        print(f"epsclass: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
