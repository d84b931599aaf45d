"""Differential testing of engine configurations against the heap oracle.

``python -m repro.perf differential`` runs every selected scenario once
under the oracle (:class:`~repro.sim.kernel.HeapKernel`, single process)
and once under a candidate engine configuration -- an alternative kernel,
a shard count > 1, or both -- and byte-diffs the canonical result
documents.  An engine configuration earns trust by producing
**byte-identical** results on every perf case -- the same
row-for-row acceptance gate the ROADMAP prescribes for the compiled
inner loop, extended to the conservative-parallel executor.

The only tolerated difference is the spec's own ``engine`` section (which
engine ran is part of the spec identity, not of the simulation outcome),
so it is stripped from both documents before comparison.

Scenarios whose topology cannot be cut into the requested shard count
(e.g. ``raw_switch_stream`` has no link graph) are reported as loud
**skips** rather than silently dropped, so a differential sweep that
covered nothing cannot masquerade as a green gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.scenario.experiment import validate_spec
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import ScenarioSpec


@dataclass
class DifferentialResult:
    """The outcome of one scenario's oracle-vs-candidate comparison."""

    kernel: str
    identical: bool
    events: int
    #: Candidate shard count (1 = single-process).
    shards: int = 1
    #: Set when the scenario cannot run the candidate configuration at all
    #: (e.g. an unpartitionable topology); ``identical`` is False then.
    skipped: Optional[str] = None
    #: Top-level document keys whose values differ (diagnostic aid).
    diverging_keys: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "shards": self.shards,
            "identical": self.identical,
            "skipped": self.skipped,
            "events": self.events,
            "diverging_keys": list(self.diverging_keys),
        }


def _canonical_document(spec: ScenarioSpec) -> tuple[str, int]:
    """Run ``spec`` once; returns (canonical JSON, events executed)."""
    result = ScenarioRunner().run(spec)
    document = result.to_dict()
    # Which engine ran is spec identity, not simulation outcome.
    document["spec"].pop("engine", None)
    return json.dumps(document, sort_keys=True), result.events_executed


def run_differential(spec: ScenarioSpec, kernel: str = "heap",
                     shards: int = 1,
                     partition: Optional[str] = None) -> DifferentialResult:
    """Diff one spec: single-process heap oracle vs the candidate engine."""
    candidate = spec.with_engine(kernel=kernel, shards=shards,
                                 partition=partition)
    if shards > 1:
        # A cut the topology cannot take (switch-level topology, more
        # shards than pods/leaves) is skipped with the partitioner's own
        # message instead of crashing mid-differential.
        try:
            validate_spec(candidate, ScenarioRunner(), set())
        except ValueError as exc:
            return DifferentialResult(kernel=kernel, identical=False,
                                      events=0, shards=shards,
                                      skipped=str(exc))
    oracle_doc, events = _canonical_document(
        spec.with_engine(kernel="heap", shards=1))
    candidate_doc, _ = _canonical_document(candidate)
    identical = oracle_doc == candidate_doc
    diverging: List[str] = []
    if not identical:
        oracle = json.loads(oracle_doc)
        candidate_parsed = json.loads(candidate_doc)
        diverging = sorted(
            key for key in set(oracle) | set(candidate_parsed)
            if oracle.get(key) != candidate_parsed.get(key))
    return DifferentialResult(kernel=kernel, identical=identical,
                              events=events, shards=shards,
                              diverging_keys=diverging)
