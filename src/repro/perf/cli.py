"""Command-line interface of the perf gates.

Usage::

    python -m repro.perf list
    python -m repro.perf differential [CASE ...] [--kernel NAME]
                                      [--shards N] [--partition NAME]
    python -m repro.perf overhead BASE_CASE VARIANT_CASE [--warmup N]
                                  [--reps N] [--fail-above PCT]

A CASE is a case id (a document in ``repro/perf/cases/``) or a path to
any scenario document.  ``differential`` runs cases under both the
single-process heap oracle and a candidate engine configuration (kernel
and/or shard count) and byte-diffs the result documents -- the
correctness gate every alternative engine must clear.

``overhead`` runs interleaved base/variant pairs in one process and, with
``--fail-above``, exits nonzero when the median per-pair wall-time ratio
exceeds the threshold.  Speed itself is measured with
``python3 bench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.perf import case_names, load_case
from repro.perf.differential import run_differential
from repro.perf.harness import measure_overhead
from repro.sim.kernel import HeapKernel, make_kernel


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    for name in case_names():
        print(f"{name:38} {load_case(name).label()}")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    measurement = measure_overhead(load_case(args.base),
                                   load_case(args.variant),
                                   warmup=args.warmup, repetitions=args.reps)
    print(f"[{Path(args.base).stem}: {measurement.base_wall_s:.4f}s  vs  "
          f"{Path(args.variant).stem}: {measurement.variant_wall_s:.4f}s]")
    print(f"overhead: {measurement.overhead_pct:+.2f}%")
    if args.fail_above is not None and measurement.overhead_pct > args.fail_above:
        print(f"FAIL: overhead {measurement.overhead_pct:+.2f}% exceeds "
              f"the {args.fail_above:.2f}% gate")
        return 1
    return 0


def _cmd_differential(args: argparse.Namespace) -> int:
    if args.shards == 1 and type(make_kernel(args.kernel)) is HeapKernel:
        # The candidate *is* the oracle (``pooled`` is an alias of it):
        # heap vs heap would be identical by construction.
        print("FAIL: nothing to compare: pass `--shards N` or a non-oracle "
              "`--kernel`")
        return 1
    # Every argument is parsed before anything runs: a typo fails at once.
    cases = [(Path(name).stem, load_case(name))
             for name in args.cases or case_names()]

    candidate = args.kernel
    if args.shards != 1:
        candidate += f" x {args.shards} shards"

    results = []
    for case_id, spec in cases:
        outcome = run_differential(spec, kernel=args.kernel,
                                   shards=args.shards,
                                   partition=args.partition)
        results.append(outcome)
        if outcome.skipped is not None:
            print(f"[{case_id}: SKIPPED: {outcome.skipped}]", flush=True)
            continue
        verdict = "identical" if outcome.identical else "DIVERGED"
        detail = ""
        if outcome.diverging_keys:
            detail = f"  (differs in: {', '.join(outcome.diverging_keys)})"
        print(f"[{case_id}: heap vs {candidate}: {verdict}, "
              f"{outcome.events:,} events]{detail}", flush=True)
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

    sub.add_parser("list", help="list the perf case documents")

    diff_p = sub.add_parser(
        "differential",
        help="byte-diff result documents between the heap oracle and a "
             "candidate engine configuration (kernel and/or shards)")
    diff_p.add_argument("cases", nargs="*",
                        help="case ids or scenario document paths; "
                             "default: every perf case")
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

    ovh_p = sub.add_parser(
        "overhead",
        help="interleaved A/B wall-time comparison of two cases (the "
             "telemetry <=5%% gate)")
    ovh_p.add_argument("base", help="base case id or document path")
    ovh_p.add_argument("variant", help="variant case id or document path")
    ovh_p.add_argument("--warmup", type=int, default=1,
                       help="unrecorded warmup pairs (default: 1)")
    ovh_p.add_argument("--reps", type=int, default=7,
                       help="recorded base/variant pairs (default: 7)")
    ovh_p.add_argument("--fail-above", type=float, default=None,
                       help="fail if the variant's wall-time overhead "
                            "exceeds this percentage")

    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "differential": _cmd_differential,
                "overhead": _cmd_overhead}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
