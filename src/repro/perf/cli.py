"""Command-line interface of the perf harness.

Usage::

    python -m repro.perf list
    python -m repro.perf run [--scale small|medium|all] [--cases a,b]
                             [--warmup N] [--reps N] [--output PATH]
    python -m repro.perf compare baseline.json head.json [--fail-above PCT]
    python -m repro.perf overhead BASE_CASE VARIANT_CASE [--fail-above PCT]
    python -m repro.perf profile CASE_ID [--top N] [--sort KEY]
    python -m repro.perf differential [CASE_ID ...] [--kernel NAME]
                                      [--shards N] [--scale small|medium|all]

``differential`` runs cases under both the single-process heap oracle and
a candidate engine configuration (kernel and/or shard count) and
byte-diffs the result documents -- the correctness gate every alternative
engine must clear.

``run`` writes a schema-versioned snapshot (default ``BENCH_perf.json``,
or ``BENCH_perf_<scale>.json`` when a single scale is selected); ``compare``
prints the per-case deltas and, with ``--fail-above``, exits nonzero on wall
time regressions beyond the threshold -- the CI tripwire.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.perf.cases import (
    TIERS,
    available_cases,
    case_with_engine,
    case_with_kernel,
    get_case,
)
from repro.perf.compare import compare_snapshots, evaluate_gate
from repro.perf.differential import run_differentials
from repro.perf.harness import (
    default_snapshot_path,
    load_snapshot,
    measure_overhead,
    run_cases,
    save_snapshot,
)
from repro.perf.profiling import SORT_KEYS, profile_case
from repro.sim.kernel import HeapKernel, make_kernel


def _select_cases(scale: str, names: Optional[str]):
    tier = None if scale == "all" else scale
    cases = available_cases(tier=tier)
    if names:
        wanted = {n.strip() for n in names.split(",") if n.strip()}
        unknown = wanted - {c.name for c in cases} - {c.case_id for c in cases}
        if unknown:
            raise KeyError(
                f"unknown case(s): {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted({c.name for c in cases}))}"
            )
        cases = [c for c in cases if c.name in wanted or c.case_id in wanted]
    if not cases:
        raise KeyError(f"no perf cases match scale={scale!r} cases={names!r}")
    return cases


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    for case in available_cases():
        print(f"{case.case_id:38} {case.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cases = _select_cases(args.scale, args.cases)
    if args.kernel != "heap" or args.shards != 1 or args.partition is not None:
        cases = [case_with_engine(c, kernel=args.kernel, shards=args.shards,
                                  partition=args.partition) for c in cases]

    def progress(measurement) -> None:
        print(f"[{measurement.case_id}: {measurement.wall_time_s:.4f}s, "
              f"{measurement.events_per_sec:,.0f} events/s, "
              f"{measurement.packets_per_sec:,.0f} packets/s]", flush=True)

    snapshot = run_cases(cases, warmup=args.warmup, repetitions=args.reps,
                         progress=progress)
    output = Path(args.output) if args.output else default_snapshot_path(
        args.scale if args.scale != "all" else None)
    save_snapshot(snapshot, output)
    print(f"snapshot written to {output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_snapshot(Path(args.baseline))
    head = load_snapshot(Path(args.head))
    report = compare_snapshots(baseline, head)
    print(report.format_table())
    return evaluate_gate(report, args.fail_above)


def _cmd_overhead(args: argparse.Namespace) -> int:
    base = get_case(args.base)
    variant = get_case(args.variant)
    measurement = measure_overhead(base, variant, warmup=args.warmup,
                                   repetitions=args.reps)
    print(f"[{measurement.base_id}: {measurement.base_wall_s:.4f}s  vs  "
          f"{measurement.variant_id}: {measurement.variant_wall_s:.4f}s]")
    print(f"overhead: {measurement.overhead_pct:+.2f}%")
    if args.fail_above is not None and measurement.overhead_pct > args.fail_above:
        print(f"FAIL: overhead {measurement.overhead_pct:+.2f}% exceeds "
              f"the {args.fail_above:.2f}% gate")
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    case = get_case(args.case)
    if args.kernel != "heap":
        case = case_with_kernel(case, args.kernel)
    print(f"== {case.case_id} ({case.description}) "
          f"[kernel={args.kernel}] ==")
    print(profile_case(case, top=args.top, sort=args.sort))
    return 0


def _cmd_differential(args: argparse.Namespace) -> int:
    if args.shards == 1 and type(make_kernel(args.kernel)) is HeapKernel:
        # The candidate *is* the oracle (``pooled`` is an alias of it):
        # heap vs heap would be identical by construction.
        print("FAIL: nothing to compare: pass `--shards N` or a non-oracle "
              "`--kernel`")
        return 1
    if args.cases:
        cases = [get_case(name) for name in args.cases]
    else:
        tier = None if args.scale == "all" else args.scale
        cases = available_cases(tier=tier)
    if not cases:
        raise KeyError(f"no perf cases match scale={args.scale!r}")

    candidate = args.kernel
    if args.shards != 1:
        candidate += f" x {args.shards} shards"

    def progress(outcome) -> None:
        if outcome.skipped is not None:
            print(f"[{outcome.case_id}: SKIPPED: {outcome.skipped}]",
                  flush=True)
            return
        verdict = "identical" if outcome.identical else "DIVERGED"
        detail = ""
        if outcome.diverging_keys:
            detail = f"  (differs in: {', '.join(outcome.diverging_keys)})"
        print(f"[{outcome.case_id}: heap vs {candidate}: {verdict}, "
              f"{outcome.events:,} events]{detail}", flush=True)

    results = run_differentials(cases, kernel=args.kernel, shards=args.shards,
                                partition=args.partition, progress=progress)
    skipped = [r for r in results if r.skipped is not None]
    covered = [r for r in results if r.skipped is None]
    diverged = [r for r in covered if not r.identical]
    if skipped:
        print(f"note: {len(skipped)}/{len(results)} case(s) skipped "
              f"(cannot run {candidate!r}); see lines above")
    if diverged:
        print(f"FAIL: {len(diverged)}/{len(covered)} case(s) diverged "
              f"from the heap oracle under {candidate!r}")
        return 1
    if not covered:
        print(f"FAIL: every selected case was skipped -- the differential "
              f"covered nothing under {candidate!r}")
        return 1
    print(f"OK: {len(covered)} case(s) byte-identical between the heap "
          f"oracle and {candidate!r}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered perf cases")

    run_p = sub.add_parser("run", help="measure cases and write a snapshot")
    run_p.add_argument("--scale", default="all", choices=list(TIERS) + ["all"],
                       help="tier to run (default: all)")
    run_p.add_argument("--cases", default=None,
                       help="comma-separated case families or case ids")
    run_p.add_argument("--warmup", type=int, default=1,
                       help="unrecorded warmup runs per case (default: 1)")
    run_p.add_argument("--reps", type=int, default=3,
                       help="recorded repetitions per case (default: 3)")
    run_p.add_argument("--output", default=None,
                       help="snapshot path (default: BENCH_perf[_scale].json)")
    run_p.add_argument("--kernel", default="heap",
                       help="simulation kernel to run under (default: heap)")
    run_p.add_argument("--shards", type=int, default=1,
                       help="shard processes to run under (default: 1)")
    run_p.add_argument("--partition", default=None,
                       help="partition strategy with --shards > 1 "
                            "(default: the spec's, normally auto)")

    cmp_p = sub.add_parser("compare", help="compare two snapshots")
    cmp_p.add_argument("baseline", help="baseline snapshot path")
    cmp_p.add_argument("head", help="head snapshot path")
    cmp_p.add_argument("--fail-above", type=float, default=None,
                       help="fail if any case's wall time regressed by more "
                            "than this percentage")

    ovh_p = sub.add_parser(
        "overhead",
        help="interleaved A/B wall-time comparison of two cases (the "
             "telemetry <=5%% gate; robust to between-session noise)")
    ovh_p.add_argument("base", help="base case id (family/tier)")
    ovh_p.add_argument("variant", help="variant case id (family/tier)")
    ovh_p.add_argument("--warmup", type=int, default=1,
                       help="unrecorded warmup pairs (default: 1)")
    ovh_p.add_argument("--reps", type=int, default=7,
                       help="recorded base/variant pairs (default: 7)")
    ovh_p.add_argument("--fail-above", type=float, default=None,
                       help="fail if the variant's wall-time overhead "
                            "exceeds this percentage")

    prof_p = sub.add_parser("profile", help="cProfile one case")
    prof_p.add_argument("case", help="case id (family/tier), e.g. "
                                     "incast_single_switch/small")
    prof_p.add_argument("--top", type=int, default=25,
                        help="number of functions to print (default: 25)")
    prof_p.add_argument("--sort", default="cumulative", choices=SORT_KEYS,
                        help="pstats sort key (default: cumulative)")
    prof_p.add_argument("--kernel", default="heap",
                        help="simulation kernel to profile (default: heap)")

    diff_p = sub.add_parser(
        "differential",
        help="byte-diff result documents between the heap oracle and a "
             "candidate kernel (correctness gate for alternative kernels)")
    diff_p.add_argument("cases", nargs="*",
                        help="case ids (family/tier); default: every "
                             "registered case at --scale")
    diff_p.add_argument("--kernel", default="heap",
                        help="candidate kernel to diff (default: heap, "
                             "which needs --shards N to differ from the "
                             "oracle)")
    diff_p.add_argument("--shards", type=int, default=1,
                        help="candidate shard count to diff; cases whose "
                             "topology cannot be cut are loudly skipped "
                             "(default: 1)")
    diff_p.add_argument("--partition", default=None,
                        help="partition strategy with --shards > 1 "
                             "(default: the spec's, normally auto)")
    diff_p.add_argument("--scale", default="all",
                        choices=list(TIERS) + ["all"],
                        help="tier to cover when no cases are named "
                             "(default: all)")

    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run,
                "compare": _cmd_compare, "overhead": _cmd_overhead,
                "profile": _cmd_profile, "differential": _cmd_differential}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
