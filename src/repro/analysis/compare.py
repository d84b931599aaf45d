"""Per-scheme / per-lb comparison tables over normalized documents.

The one comparison-table builder.  Every row of every ok
:class:`RunDocument` is tagged with its run identity (``_experiment`` /
``_scale`` / ``_seed`` / ``_hash``); on top of that flat list:

* :func:`scheme_summary` -- per-scheme percentile summary (mean/p50/p95/p99
  via :mod:`repro.metrics.percentiles`) of one metric column;
* :func:`scheme_deltas` -- scheme-vs-scheme deltas of the metric means
  against a baseline scheme (the paper's occamy-vs-dt comparisons);
* :func:`comparison_tables` -- one summary + delta pair per experiment,
  since each paper figure is its own comparison and pooling two figures'
  rows into one mean answers no question.

Tables are :class:`ExperimentResult`\\ s, so the runner's table formatting
is reused for free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.sources import GROUP_DEFAULTS, RunDocument
from repro.experiments.common import ExperimentResult
from repro.metrics.percentiles import summarize

#: Identity columns attached to every tagged row.
TAG_COLUMNS = ("_experiment", "_scale", "_seed", "_hash")


def tagged_document_rows(documents: Sequence[RunDocument]
                         ) -> List[Dict[str, object]]:
    """Every row of every ok document, tagged with its run identity.

    The rows stay faithful to what was stored: a grouping column's default
    (:data:`~repro.analysis.sources.GROUP_DEFAULTS`) is applied at
    selection time, not here.
    """
    rows: List[Dict[str, object]] = []
    for doc in documents:
        if not doc.ok:
            continue
        for row in doc.rows:
            tagged = dict(row)
            tagged["_experiment"] = doc.experiment
            tagged["_scale"] = doc.scale
            tagged["_seed"] = doc.seed
            tagged["_hash"] = doc.config_hash or doc.label
            rows.append(tagged)
    return rows


def numeric_columns(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Metric-candidate columns: numeric, non-bool, non-tag, in first-seen order."""
    columns: List[str] = []
    for row in rows:
        for key, value in row.items():
            if key in TAG_COLUMNS or key in columns:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            columns.append(key)
    return columns


def _metric_values(
    rows: Sequence[Dict[str, object]], metric: str, group_key: str
) -> Dict[str, List[float]]:
    """metric samples per group value, insertion-ordered."""
    groups: Dict[str, List[float]] = {}
    for row in rows:
        group = row.get(group_key)
        value = row.get(metric)
        if group is None or not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        groups.setdefault(str(group), []).append(float(value))
    return groups


def scheme_summary(
    rows: Sequence[Dict[str, object]],
    metric: str,
    group_key: str = "scheme",
) -> ExperimentResult:
    """Percentile summary of ``metric`` for each scheme (or other group)."""
    result = ExperimentResult(
        f"summary[{metric}]", notes=f"grouped by {group_key}; all runs in store"
    )
    for group, values in _metric_values(rows, metric, group_key).items():
        stats = summarize(values)
        result.add_row(
            **{group_key: group},
            count=stats["count"],
            mean=round(stats["mean"], 6),
            p50=round(stats["p50"], 6),
            p95=round(stats["p95"], 6),
            p99=round(stats["p99"], 6),
            max=round(stats["max"], 6),
        )
    return result


def scheme_deltas(
    rows: Sequence[Dict[str, object]],
    metric: str,
    baseline: Optional[str] = None,
    group_key: str = "scheme",
) -> ExperimentResult:
    """Mean-``metric`` deltas of every scheme against a baseline scheme.

    ``delta`` is ``mean(scheme) - mean(baseline)`` and ``delta_pct`` the same
    relative to the baseline mean (0.0 when the baseline mean is zero).  The
    baseline defaults to the first scheme seen in the rows.
    """
    groups = _metric_values(rows, metric, group_key)
    result = ExperimentResult(f"deltas[{metric}]")
    if not groups:
        return result
    if baseline is None:
        baseline = next(iter(groups))
    if baseline not in groups:
        raise KeyError(
            f"baseline {baseline!r} not in store; have: {', '.join(groups)}"
        )
    base_mean = sum(groups[baseline]) / len(groups[baseline])
    result.notes = f"baseline {group_key}={baseline}, mean {metric}={base_mean:.6g}"
    for group, values in groups.items():
        group_mean = sum(values) / len(values)
        delta = group_mean - base_mean
        result.add_row(
            **{group_key: group},
            runs=len(values),
            mean=round(group_mean, 6),
            delta=round(delta, 6),
            delta_pct=round(100.0 * delta / base_mean, 2) if base_mean else 0.0,
        )
    return result


def _experiment_tables(
    rows: Sequence[Dict[str, object]],
    metric: Optional[str],
    baseline: Optional[str],
    group_by: str,
) -> Tuple[List[ExperimentResult], List[str]]:
    """Summary + delta tables of one experiment's rows, or why there are none.

    An explicitly requested ``metric`` or ``baseline`` the rows lack is
    never silently substituted: an unknown metric yields no tables, an
    unknown baseline the summary alone, each with a warning.
    """
    grouped = [row for row in rows if group_by in row]
    if not grouped:
        return [], [f"no rows with a {group_by!r} column; nothing to compare"]
    metrics = numeric_columns(grouped)
    if metric is None:
        if not metrics:
            return [], ["no numeric metric columns; nothing to compare"]
        metric = metrics[0]
    elif metric not in metrics:
        return [], [
            f"metric {metric!r} not in columns "
            f"({', '.join(metrics) or 'none numeric'}); nothing to compare"]
    summary = scheme_summary(grouped, metric, group_key=group_by)
    present = sorted({str(row.get(group_by)) for row in grouped})
    if baseline is not None and baseline not in present:
        return [summary], [
            f"baseline {baseline!r} not among {group_by}s "
            f"({', '.join(present)}); delta table skipped"]
    return [summary, scheme_deltas(grouped, metric, baseline=baseline,
                                   group_key=group_by)], []


def comparison_tables(
    documents: Sequence[RunDocument],
    metric: Optional[str] = None,
    baseline: Optional[str] = None,
    group_by: str = "scheme",
) -> Tuple[List[ExperimentResult], List[str]]:
    """Summary + delta tables of one metric per experiment, grouped by scheme or lb.

    Returns ``(tables, warnings)``.  Each experiment whose rows carry the
    grouping column is compared on its own rows, in sorted experiment
    order; the others (Table 1's hardware costs, say) compare nothing and
    are passed over.  With several such experiments, every table name and
    warning starts with its experiment (``fig13 summary[...]``); with one,
    they carry no prefix.  A grouping column with a known default (``lb``
    -> ``ecmp``) is backfilled into rows without it.  The metric defaults
    to each experiment's first numeric column.
    """
    rows = tagged_document_rows(documents)
    default = GROUP_DEFAULTS.get(group_by)
    if default is not None:
        for row in rows:
            row.setdefault(group_by, default)
    experiments = sorted({str(row["_experiment"]) for row in rows
                          if group_by in row})
    if len(experiments) <= 1:
        return _experiment_tables(rows, metric, baseline, group_by)
    tables: List[ExperimentResult] = []
    warnings: List[str] = []
    for name in experiments:
        found, why = _experiment_tables(
            [row for row in rows if row["_experiment"] == name],
            metric, baseline, group_by)
        for table in found:
            table.experiment = f"{name} {table.experiment}"
        tables.extend(found)
        warnings.extend(f"{name}: {warning}" for warning in why)
    return tables, warnings
