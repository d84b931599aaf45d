"""Command-line interface for experiment campaigns.

Usage::

    python -m repro.campaign run sweep.json --jobs 4 --store results/
    python -m repro.campaign run sweep.json --jobs 4 --store results/ --resume
    python -m repro.campaign run sweep.json --farm subprocess:4 --store results/
    python -m repro.campaign run sweep.json --farm ssh-hosts:hosts.json --live
    python -m repro.campaign status --store results/
    python -m repro.campaign report --store results/ --metric avg_qct_ms --baseline dt
    python -m repro.campaign report --store results/ --format csv
    python -m repro.campaign clean --store results/ --failed-only

``run`` expands the JSON sweep spec into its run grid, executes it on a
worker pool, and persists one JSON artifact per run (keyed by config hash)
under ``<store>/runs/``.  With ``--resume``, runs whose hash is already
stored successfully are served from the store instead of re-simulated.
``report`` rebuilds cross-scheme comparison tables purely from the store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign.aggregate import campaign_report
from repro.campaign.executor import CampaignExecutor, print_progress
from repro.campaign.spec import SweepSpec
from repro.campaign.store import ResultStore

DEFAULT_STORE = "campaign-results"


def _store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=DEFAULT_STORE,
        help=f"result store directory (default: {DEFAULT_STORE})",
    )


def cmd_run(args: argparse.Namespace) -> int:
    spec = SweepSpec.from_file(args.spec)
    runs = spec.expand()
    if args.dry_run:
        for run in runs:
            print(f"{run.config_hash()}  {run.label()}")
        print(f"[campaign {spec.name}: {len(runs)} runs]")
        return 0
    store = ResultStore(args.store)
    farm = None
    if args.farm is not None:
        from repro.farm import make_farm

        try:
            farm = make_farm(args.farm, jobs=args.jobs)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    executor = CampaignExecutor(store=store, jobs=args.jobs, farm=farm)
    backend = farm.describe() if farm is not None else f"jobs={args.jobs}"
    print(f"[campaign {spec.name}: {len(runs)} runs, {backend}, "
          f"store={store.root}]", flush=True)
    progress = print_progress
    board = None
    if args.live:
        from repro.telemetry.dashboard import CampaignBoard

        board = CampaignBoard(runs)
        progress = board
        if farm is not None:
            farm.on_worker = board.update_workers
    outcomes = executor.run(runs, resume=args.resume, progress=progress)
    if board is not None:
        board.finish()
    failed = [o for o in outcomes if not o.ok]
    cached = sum(1 for o in outcomes if o.status == "cached")
    print(f"[campaign {spec.name}: {len(outcomes) - len(failed)} ok "
          f"({cached} cached), {len(failed)} failed]")
    if farm is not None:
        for row in farm.health_rows():
            print(f"  worker {row['worker']}: ok {row['ok']} "
                  f"failed {row['failed']} lost {row['lost']} "
                  f"retried {row['retried']} busy {row['elapsed']}s "
                  f"spawned {row['spawned']}")
    return 1 if failed else 0


def cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    entries = {entry.config_hash: entry for entry in store.entries()}
    counts: dict = {}
    for entry in entries.values():
        counts[entry.status] = counts.get(entry.status, 0) + 1
    print(f"store {store.root}: {len(entries)} stored runs")
    for status in sorted(counts):
        print(f"  {status}: {counts[status]}")
    for name in store.quarantined:
        print(f"  corrupt entry moved aside: {name}")
    if args.spec:
        runs = SweepSpec.from_file(args.spec).expand()
        done = sum(
            1 for r in runs
            if (e := entries.get(r.config_hash())) is not None and e.ok
        )
        print(f"spec {Path(args.spec).name}: {done}/{len(runs)} runs completed")
    for entry in entries.values():
        if not entry.ok:
            print(f"  failed {entry.config_hash} {entry.spec.label()}: {entry.error}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    report = campaign_report(
        store,
        experiment=args.experiment,
        metric=args.metric,
        baseline=args.baseline,
        group_key=args.group_by,
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.tables:
        print(f"store {store.root}: no completed runs with a "
              f"{args.group_by!r} column to report on")
        return 1
    if args.format == "json":
        print(json.dumps([table.to_dict() for table in report.tables],
                         indent=2, sort_keys=True))
    elif args.format == "csv":
        for table in report.tables:
            # One CSV block per table, prefixed with a comment naming it so
            # multi-table output still splits cleanly.
            print(f"# {table.experiment}")
            print(table.to_csv(), end="")
            print()
    else:
        for table in report.tables:
            print(table)
            print()
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    removed = store.clean(failed_only=args.failed_only)
    kind = "failed artifacts" if args.failed_only else "artifacts"
    print(f"store {store.root}: removed {removed} {kind}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep spec")
    p_run.add_argument("spec", help="path to a JSON sweep spec")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: 1 = serial)")
    p_run.add_argument("--resume", action="store_true",
                       help="skip runs already completed in the store")
    p_run.add_argument("--dry-run", action="store_true",
                       help="print the expanded run grid and exit")
    p_run.add_argument("--live", action="store_true",
                       help="render an in-place progress board (one row per "
                            "experiment) instead of per-run progress lines")
    p_run.add_argument("--farm", default=None, metavar="SPEC",
                       help="execute on a run farm instead of the local "
                            "pool: 'local', 'subprocess[:N]' or "
                            "'ssh-hosts:HOSTS.json'")
    _store_arg(p_run)
    p_run.set_defaults(func=cmd_run)

    p_status = sub.add_parser("status", help="summarize the result store")
    p_status.add_argument("--spec", default=None,
                          help="also report completion against this sweep spec")
    _store_arg(p_status)
    p_status.set_defaults(func=cmd_status)

    p_report = sub.add_parser("report",
                              help="cross-scheme comparison tables from the store")
    p_report.add_argument("--experiment", default=None,
                          help="restrict to one experiment")
    p_report.add_argument("--metric", default=None,
                          help="metric column (default: first numeric column)")
    p_report.add_argument("--baseline", default=None,
                          help="baseline scheme for deltas (default: first seen)")
    p_report.add_argument("--group-by", default="scheme",
                          help="grouping column (default: scheme)")
    p_report.add_argument("--format", default="table",
                          choices=["table", "csv", "json"],
                          help="output format for downstream plotting "
                               "(default: table)")
    _store_arg(p_report)
    p_report.set_defaults(func=cmd_report)

    p_clean = sub.add_parser("clean", help="delete stored artifacts")
    p_clean.add_argument("--failed-only", action="store_true",
                         help="only delete failed runs")
    _store_arg(p_clean)
    p_clean.set_defaults(func=cmd_clean)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
