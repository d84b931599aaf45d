"""``python -m repro.analysis``: post-processing over stored run documents.

Subcommands (all read stores / result JSONs, never re-simulate):

* ``summary``  -- one row per loaded document (identity, status, payload);
* ``fct``      -- FCT / slowdown CDF rows per scheme or lb (the paper's
  slowdown-CDF figures), or a percentile table with ``--format table``;
* ``qlen``     -- queue-depth (or any ``--series``) timelines, one
  commented CSV block per telemetry-carrying run;
* ``compare``  -- per-scheme / per-lb summary + baseline-delta tables, one
  pair per experiment.

Inputs are any mix of: a campaign store directory, store-entry JSONs,
``ScenarioResult`` documents, ``ExperimentResult`` documents, and bare
telemetry sections.  This is the one command that reads stored results.
All output is deterministic: the same store produces byte-identical bytes
on every invocation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from repro.analysis import compare as compare_mod
from repro.analysis import fct as fct_mod
from repro.analysis import qlen as qlen_mod
from repro.analysis.sources import RunDocument, load_documents
from repro.experiments.common import ExperimentResult

FORMATS = ("csv", "table", "json")


def _row_columns(rows: Sequence[Dict[str, object]]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _write_rows_csv(rows: Sequence[Dict[str, object]], stream: TextIO) -> None:
    columns = _row_columns(rows)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(column, "") for column in columns])


def _rows_as_result(name: str, rows: Sequence[Dict[str, object]]
                    ) -> ExperimentResult:
    result = ExperimentResult(name)
    for row in rows:
        result.add_row(**row)
    return result


def _emit_rows(name: str, rows: Sequence[Dict[str, object]],
               output_format: str, stream: TextIO) -> None:
    if output_format == "csv":
        _write_rows_csv(rows, stream)
    elif output_format == "json":
        stream.write(json.dumps(list(rows), sort_keys=True, indent=2) + "\n")
    else:
        stream.write(_rows_as_result(name, rows).format_table() + "\n")


def _emit_tables(tables: Sequence[ExperimentResult], output_format: str,
                 stream: TextIO) -> None:
    if output_format == "json":
        stream.write(json.dumps([table.to_dict() for table in tables],
                                sort_keys=True, indent=2) + "\n")
        return
    for index, table in enumerate(tables):
        if output_format == "csv":
            stream.write(f"# {table.experiment}"
                         + (f" ({table.notes})" if table.notes else "")
                         + "\n")
            _write_rows_csv(table.rows, stream)
        else:
            if index:
                stream.write("\n")
            stream.write(f"== {table.experiment} =="
                         + (f"  {table.notes}" if table.notes else "")
                         + "\n")
            stream.write(table.format_table() + "\n")


def _cmd_summary(documents: List[RunDocument], args,
                 stream: TextIO) -> int:
    rows = [doc.summary() for doc in documents]
    _emit_rows("analysis:summary", rows, args.format, stream)
    return 0


def _cmd_fct(documents: List[RunDocument], args, stream: TextIO) -> int:
    with_flows = fct_mod.require_flows(documents)
    if args.format == "table":
        table = fct_mod.fct_summary(
            with_flows, group_by=args.group_by, metric=args.metric,
            small_only=args.small_only)
        _emit_tables([table], args.format, stream)
        return 0
    rows = fct_mod.fct_cdf_rows(
        with_flows, group_by=args.group_by, metric=args.metric,
        points=args.points, small_only=args.small_only)
    _emit_rows("analysis:fct", rows, args.format, stream)
    return 0


def _cmd_qlen(documents: List[RunDocument], args, stream: TextIO) -> int:
    qlen_mod.write_qlen_csv(documents, stream, args.series)
    return 0


def _cmd_compare(documents: List[RunDocument], args, stream: TextIO) -> int:
    tables, warnings = compare_mod.comparison_tables(
        documents, metric=args.metric, baseline=args.baseline,
        group_by=args.group_by)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not tables:
        return 1
    _emit_tables(tables, args.format, stream)
    return 0


def _add_common(parser: argparse.ArgumentParser,
                default_format: str = "csv") -> None:
    parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="campaign store directory, store-entry / scenario-result / "
             "experiment-result JSON, or a directory of such JSONs")
    parser.add_argument("--format", choices=FORMATS, default=default_format,
                        help=f"output format (default: {default_format})")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Analysis over stored run documents: FCT/slowdown CDFs, "
                    "queue-depth timelines, per-scheme comparison tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary",
                             help="one row per loaded document")
    _add_common(summary, default_format="table")

    fct = sub.add_parser(
        "fct", help="FCT / slowdown CDF per scheme or lb "
                    "(--format table for a percentile summary)")
    _add_common(fct)
    fct.add_argument("--group-by", default="scheme",
                     help="grouping column, e.g. scheme or lb "
                          "(default: scheme)")
    fct.add_argument("--metric", choices=fct_mod.FLOW_METRICS,
                     default="slowdown",
                     help="per-flow metric (default: slowdown)")
    fct.add_argument("--points", type=int, default=50,
                     help="max CDF points per group (default: 50)")
    fct.add_argument("--small-only", action="store_true",
                     help="restrict to small flows "
                          "(<= 100 KiB, the paper's breakdown)")

    qlen = sub.add_parser(
        "qlen", help="queue-depth timelines, one CSV block per run")
    _add_common(qlen)
    qlen.add_argument("--series", nargs="*", default=None, metavar="GLOB",
                      help="telemetry series globs (default: switch "
                           "occupancy + per-port backlogs)")

    cmp_parser = sub.add_parser(
        "compare", help="per-scheme / per-lb summary + delta tables, "
                        "one pair per experiment")
    _add_common(cmp_parser, default_format="table")
    cmp_parser.add_argument("--group-by", default="scheme",
                            help="grouping column (default: scheme)")
    cmp_parser.add_argument("--metric", default=None,
                            help="metric column "
                                 "(default: first numeric column)")
    cmp_parser.add_argument("--baseline", default=None,
                            help="baseline group for the delta table "
                                 "(default: first group seen)")
    return parser


COMMANDS = {
    "summary": _cmd_summary,
    "fct": _cmd_fct,
    "qlen": _cmd_qlen,
    "compare": _cmd_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        documents = load_documents(args.paths)
        if not documents:
            raise ValueError("no documents loaded")
        if args.out is None:
            return COMMANDS[args.command](documents, args, sys.stdout)
        with open(args.out, "w") as stream:
            status = COMMANDS[args.command](documents, args, stream)
        print(f"wrote {args.out}", file=sys.stderr)
        return status
    except BrokenPipeError:
        # stdout piped into a pager/head that exited; not an error.
        sys.stderr.close()
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
