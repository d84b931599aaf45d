"""Document loading for the analysis toolkit: the one reader of stored results.

Every stored shape -- a campaign :class:`ResultStore` directory, a single
store-entry JSON, a ``ScenarioResult.to_dict()`` document, an
``ExperimentResult`` document, or a bare telemetry section -- is read here
and normalized into a :class:`RunDocument`: identity tags, summary rows,
the per-flow trace with its ideal-FCT context, and the telemetry section.
Everything downstream (CDFs, timelines, comparison tables) works on
``RunDocument`` lists and never re-simulates.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: Grouping columns whose absence means a known value: summary rows only
#: carry an ``lb`` column for non-default policies, so rows without one
#: *are* the static-hashing baseline, not unknown.
GROUP_DEFAULTS = {"lb": "ecmp"}


@dataclass
class FlowSet:
    """A run's per-flow records plus the ideal-FCT context to score them."""

    bottleneck_bps: float
    base_rtt: float
    records: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def from_payload(cls, data: Optional[Mapping]) -> Optional["FlowSet"]:
        if not isinstance(data, Mapping):
            return None
        try:
            bottleneck = float(data["bottleneck_bps"])
            base_rtt = float(data["base_rtt"])
        except (KeyError, TypeError, ValueError):
            return None
        if bottleneck <= 0:
            return None
        records = data.get("records", [])
        if not isinstance(records, list):
            return None
        return cls(bottleneck_bps=bottleneck, base_rtt=base_rtt,
                   records=[dict(r) for r in records])


@dataclass
class RunDocument:
    """One stored run, normalized for analysis."""

    label: str
    experiment: str = ""
    scale: str = "-"
    seed: int = 0
    status: str = "ok"
    config_hash: str = ""
    rows: List[Dict[str, object]] = field(default_factory=list)
    flows: Optional[FlowSet] = None
    telemetry: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def group_value(self, group_by: str) -> str:
        """The run's value of a grouping column, read from its rows.

        A column no row carries reads as its :data:`GROUP_DEFAULTS` entry
        (``lb`` -> ``ecmp``), else ``"-"``.
        """
        for row in self.rows:
            if group_by in row:
                return str(row[group_by])
        return GROUP_DEFAULTS.get(group_by, "-")

    def summary(self) -> Dict[str, object]:
        """One flat row describing this run (the ``summary`` subcommand)."""
        row: Dict[str, object] = {
            "label": self.label,
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "status": self.status,
            "rows": len(self.rows),
            "flows": len(self.flows.records) if self.flows else 0,
            "telemetry_ticks": (self.telemetry or {}).get("ticks", 0),
        }
        return row


def _document_from_store_entry(entry) -> RunDocument:
    """Normalize a campaign :class:`StoreEntry` (ok or failed)."""
    rows: List[Dict[str, object]] = []
    flows: Optional[FlowSet] = None
    telemetry: Optional[Dict[str, object]] = None
    if entry.result is not None:
        rows = [dict(row) for row in entry.result.rows]
        artifacts = entry.result.artifacts or {}
        flows = FlowSet.from_payload(artifacts.get("flows"))
        section = artifacts.get("telemetry")
        telemetry = dict(section) if isinstance(section, Mapping) else None
    return RunDocument(
        label=entry.config_hash,
        experiment=entry.spec.experiment,
        scale=entry.spec.scale,
        seed=entry.spec.seed,
        status=entry.status,
        config_hash=entry.config_hash,
        rows=rows,
        flows=flows,
        telemetry=telemetry,
    )


def _document_from_scenario_doc(label: str, doc: Mapping) -> RunDocument:
    """Normalize a ``ScenarioResult.to_dict()`` document."""
    spec = doc.get("spec", {})
    flows: Optional[FlowSet] = None
    fct = doc.get("fct")
    if isinstance(fct, Mapping) and isinstance(doc.get("flows"), list):
        flows = FlowSet.from_payload({**fct, "records": doc["flows"]})
    telemetry = doc.get("telemetry")
    return RunDocument(
        label=label,
        experiment=f"scenario:{spec.get('name', '-')}",
        seed=int(spec.get("seed", 0)),
        rows=[dict(doc["summary"])] if isinstance(doc.get("summary"),
                                                  Mapping) else [],
        flows=flows,
        telemetry=dict(telemetry) if isinstance(telemetry, Mapping) else None,
    )


def _document_from_experiment_doc(label: str, doc: Mapping) -> RunDocument:
    """Normalize an ``ExperimentResult.to_dict()`` document."""
    artifacts = doc.get("artifacts", {})
    if not isinstance(artifacts, Mapping):
        artifacts = {}
    telemetry = artifacts.get("telemetry")
    return RunDocument(
        label=label,
        experiment=str(doc.get("experiment", "-")),
        rows=[dict(row) for row in doc.get("rows", [])],
        flows=FlowSet.from_payload(artifacts.get("flows")),
        telemetry=dict(telemetry) if isinstance(telemetry, Mapping) else None,
    )


def document_from_json(label: str, doc: Mapping) -> RunDocument:
    """Classify and normalize one loaded JSON document.

    Recognizes, in order: a ResultStore entry (``spec`` + ``status``), a
    ScenarioResult document (``spec`` + ``summary``), an ExperimentResult
    document (``experiment`` + ``rows``), and a bare telemetry section
    (``time`` + ``series``).
    """
    if "spec" in doc and "status" in doc:
        from repro.campaign.store import StoreEntry

        return _document_from_store_entry(StoreEntry.from_dict(dict(doc)))
    if "spec" in doc and "summary" in doc:
        return _document_from_scenario_doc(label, doc)
    if "experiment" in doc and "rows" in doc:
        return _document_from_experiment_doc(label, doc)
    if "time" in doc and "series" in doc:
        return RunDocument(label=label, experiment="telemetry",
                           telemetry=dict(doc))
    raise ValueError(
        f"{label}: unrecognized document shape; expected a campaign store "
        "entry, a scenario result, an experiment result, or a bare "
        "telemetry section")


def load_documents(paths: Sequence[str | Path]) -> List[RunDocument]:
    """Load every path into :class:`RunDocument`\\ s, in a stable order.

    A directory containing ``runs/`` is read as a campaign
    :class:`ResultStore` (hash order); any other directory contributes its
    ``*.json`` files (name order); a file is parsed as a single document.
    """
    documents: List[RunDocument] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir() and (path / "runs").is_dir():
            from repro.campaign.store import ResultStore

            store = ResultStore(path)
            for entry in store.entries():
                documents.append(_document_from_store_entry(entry))
            for name in store.quarantined:
                warnings.warn(f"{path}: corrupt store entry moved aside: {name}",
                              stacklevel=2)
        elif path.is_dir():
            files = sorted(path.glob("*.json"))
            if not files:
                raise ValueError(f"{path}: no *.json documents found")
            for file in files:
                documents.append(document_from_json(
                    file.stem, json.loads(file.read_text())))
        elif path.is_file():
            documents.append(document_from_json(
                path.stem, json.loads(path.read_text())))
        else:
            raise ValueError(f"{path}: no such file or directory")
    return documents
