"""Cross-run aggregation over the campaign result store.

Builds comparison tables purely from persisted artifacts -- no
re-simulation.  The central structure is a flat list of *tagged rows*: every
row of every stored :class:`~repro.experiments.common.ExperimentResult`,
augmented with the run's identity columns (``_experiment``, ``_scale``,
``_seed``, ``_hash``).  On top of that:

* :func:`scheme_summary` -- per-scheme percentile summary (mean/p50/p95/p99
  via :mod:`repro.metrics.percentiles`) of one metric column;
* :func:`scheme_deltas` -- scheme-vs-scheme deltas of the metric means
  against a baseline scheme (the paper's occamy-vs-dt style comparisons).

Both return :class:`ExperimentResult` so the runner's table formatting is
reused for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.campaign.store import ResultStore, StoreEntry
from repro.experiments.common import ExperimentResult
from repro.metrics.percentiles import summarize

#: Identity columns attached to every tagged row.
TAG_COLUMNS = ("_experiment", "_scale", "_seed", "_hash")


@dataclass
class CampaignReport:
    """Comparison tables plus per-experiment skip warnings."""

    tables: List[ExperimentResult] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def tagged_rows(entries: Iterable[StoreEntry]) -> List[Dict[str, object]]:
    """Flatten successful entries into rows tagged with their run identity."""
    rows: List[Dict[str, object]] = []
    for entry in entries:
        if not entry.ok or entry.result is None:
            continue
        for row in entry.result.rows:
            tagged = dict(row)
            tagged["_experiment"] = entry.spec.experiment
            tagged["_scale"] = entry.spec.scale
            tagged["_seed"] = entry.spec.seed
            tagged["_hash"] = entry.config_hash
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


def campaign_report(
    store: ResultStore,
    experiment: Optional[str] = None,
    metric: Optional[str] = None,
    baseline: Optional[str] = None,
    group_key: str = "scheme",
) -> "CampaignReport":
    """Assemble the full report for one or all experiments in the store.

    For each experiment with rows containing ``group_key``: a percentile
    summary plus a baseline-delta table of the chosen (or first numeric)
    metric column.  An explicitly requested ``metric`` or ``baseline`` that
    an experiment's rows don't contain is never silently substituted -- the
    experiment is skipped with a warning instead.
    """
    entries = store.ok_entries()
    experiments = sorted({e.spec.experiment for e in entries})
    if experiment is not None:
        experiments = [e for e in experiments if e == experiment]
    report = CampaignReport()
    for name in experiments:
        rows = tagged_rows([e for e in entries if e.spec.experiment == name])
        grouped = [r for r in rows if group_key in r]
        if not grouped:
            report.warnings.append(
                f"{name}: no rows with a {group_key!r} column; skipped"
            )
            continue
        metrics = numeric_columns(grouped)
        if metric is not None:
            if metric not in metrics:
                report.warnings.append(
                    f"{name}: metric {metric!r} not in columns "
                    f"({', '.join(metrics) or 'none numeric'}); skipped"
                )
                continue
            chosen = metric
        elif metrics:
            chosen = metrics[0]
        else:
            report.warnings.append(f"{name}: no numeric metric columns; skipped")
            continue
        present = {str(r.get(group_key)) for r in grouped}
        if baseline is not None and baseline not in present:
            report.warnings.append(
                f"{name}: baseline {baseline!r} not among "
                f"{group_key}s ({', '.join(sorted(present))}); skipped"
            )
            continue
        summary = scheme_summary(grouped, chosen, group_key=group_key)
        summary.experiment = f"{name} {summary.experiment}"
        deltas = scheme_deltas(grouped, chosen, baseline=baseline, group_key=group_key)
        deltas.experiment = f"{name} {deltas.experiment}"
        report.tables.extend([summary, deltas])
    return report
