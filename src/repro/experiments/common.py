"""Shared infrastructure for the experiment harnesses.

The paper's evaluation compares four buffer-management schemes (DT, ABM,
Pushout, Occamy) across single-switch testbeds and a leaf-spine fabric.
Since the :mod:`repro.scenario` layer landed, this module is mostly glue:

* :class:`ExperimentResult` -- the rows-of-dicts container every experiment
  returns (with table/CSV/JSON rendering);
* :class:`Figure` -- what a figure harness's ``points()`` declares: the
  scenarios to run, one point at a time;
* re-exports of :class:`~repro.scenario.scales.ScenarioConfig` /
  :func:`~repro.scenario.scales.get_scale` (their historical home).

Harnesses build :class:`~repro.scenario.spec.ScenarioSpec`\\ s with
:mod:`repro.scenario.builders`; :func:`repro.experiments.runner.run_figure`
runs them and turns each point's results into a row.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.percentiles import mean, percentile
from repro.scenario.scales import ScenarioConfig, get_scale

__all__ = [
    "ExperimentResult",
    "Figure",
    "ScenarioConfig",
    "default_schemes",
    "get_scale",
    "slowdowns",
]


def default_schemes() -> List[str]:
    """The four schemes compared throughout the paper's evaluation."""
    return ["occamy", "abm", "dt", "pushout"]


def slowdowns(stats) -> Dict[str, float]:
    """A fabric run's QCT slowdowns and background FCT slowdowns.

    ``stats`` is the run's :class:`~repro.metrics.flows.FlowStats`.
    """
    return dict(
        avg_qct_slowdown=mean(stats.qct_slowdowns()),
        p99_qct_slowdown=percentile(stats.qct_slowdowns(), 99),
        avg_bg_fct_slowdown=mean(stats.fct_slowdowns(query_traffic=False)),
        p99_small_bg_fct_slowdown=percentile(
            stats.fct_slowdowns(query_traffic=False, small_only=True), 99
        ),
    )


# ----------------------------------------------------------------------
# Results container
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """Rows of an experiment (one dict per measured point) plus metadata.

    ``artifacts`` carries non-tabular payloads (today: the telemetry
    section of a telemetry-enabled scenario run) through the campaign
    ``ResultStore``; it is omitted from the serialized document when empty,
    so pre-artifact documents are unchanged.
    """

    experiment: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""
    artifacts: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: object) -> List[Dict[str, object]]:
        """Rows matching all of the given column values."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out

    def to_dict(self) -> Dict[str, object]:
        """A plain-dict form suitable for JSON serialization.

        Row values must themselves be JSON-serializable (the experiments only
        emit strings, numbers and booleans); a JSON round-trip is lossless for
        those types.
        """
        doc: Dict[str, object] = {
            "experiment": self.experiment,
            "notes": self.notes,
            "rows": [dict(row) for row in self.rows],
        }
        if self.artifacts:
            doc["artifacts"] = dict(self.artifacts)
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        ``rows`` and ``notes`` default so older artifacts without them
        resume cleanly, and a bare ``{}`` (a legitimately empty result
        artifact) rebuilds into an empty result.  Any other payload must
        carry its ``experiment`` name: a corrupted store entry should fail
        loudly on resume, not round-trip as a nameless result.
        """
        if not data:
            return cls(experiment="")
        return cls(
            experiment=str(data["experiment"]),
            rows=[dict(row) for row in data.get("rows", [])],
            notes=str(data.get("notes", "")),
            artifacts=dict(data.get("artifacts", {})),
        )

    @classmethod
    def from_optional_dict(
        cls, data: Optional[Dict[str, object]]
    ) -> Optional["ExperimentResult"]:
        """:meth:`from_dict` for an optional payload: ``None`` stays ``None``.

        The shared deserialization contract for run outcomes and store
        entries -- ``is not None``, never truthiness, so an empty-but-present
        payload rebuilds into an (empty) result instead of being dropped.
        """
        if data is None:
            return None
        return cls.from_dict(data)

    def to_csv(self) -> str:
        """The rows as RFC-4180 CSV text (header + one line per row).

        Missing cells render empty; values are written with ``str()`` so the
        output feeds straight into pandas / gnuplot / spreadsheet tooling.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        cols = self.columns()
        writer.writerow(cols)
        for row in self.rows:
            writer.writerow(["" if row.get(c) is None else row.get(c)
                             for c in cols])
        return buffer.getvalue()

    def format_table(self, float_digits: int = 4) -> str:
        """Render the rows as an aligned text table."""
        cols = self.columns()
        if not cols:
            return f"[{self.experiment}] (no rows)"

        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.{float_digits}g}"
            return str(value)

        table = [[fmt(row.get(c, "")) for c in cols] for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in table)) if table else len(c)
                  for i, c in enumerate(cols)]
        lines = [
            "  ".join(c.ljust(w) for c, w in zip(cols, widths, strict=True)),
            "  ".join("-" * w for w in widths),
        ]
        for row in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths, strict=True)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        header = f"== {self.experiment} =="
        if self.notes:
            header += f"  ({self.notes})"
        return header + "\n" + self.format_table()


@dataclass
class Figure:
    """A figure harness's points, in row order.

    Each point is ``(keys, spec)``: ``keys`` are the row's leading columns,
    ``spec`` one :class:`~repro.scenario.spec.ScenarioSpec` or a tuple of
    them (a with / without competitor pair).  The harness's ``row(keys,
    results)`` reads the point's result(s) into the full row.
    """

    experiment: str
    notes: str
    points: List[Tuple[Dict[str, object], Any]]

    def result(self, rows: Iterable[Dict[str, object]]) -> ExperimentResult:
        return ExperimentResult(self.experiment, rows=list(rows), notes=self.notes)
