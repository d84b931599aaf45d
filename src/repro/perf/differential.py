"""Differential testing of engine configurations against the heap oracle.

``python -m repro.perf differential`` runs every selected perf case once
under the oracle (:class:`~repro.sim.kernel.HeapKernel`, single process)
and once under a candidate engine configuration -- an alternative kernel,
a shard count > 1, or both -- and byte-diffs the canonical result
documents.  An engine configuration earns trust by producing
**byte-identical** results on every registered case -- the same
row-for-row acceptance gate the ROADMAP prescribes for the compiled
inner loop, extended to the conservative-parallel executor.

The only tolerated difference is the spec's own ``engine`` section (which
engine ran is part of the spec identity, not of the simulation outcome),
so it is stripped from both documents before comparison.

Cases whose topology cannot be cut into the requested shard count (e.g.
``raw_switch_stream`` has no link graph) are reported as loud **skips**
rather than silently dropped, so a differential sweep that covered
nothing cannot masquerade as a green gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.perf.cases import PerfCase, case_with_engine
from repro.scenario.runner import ScenarioRunner


@dataclass
class DifferentialResult:
    """The outcome of one case's oracle-vs-candidate comparison."""

    case_id: str
    kernel: str
    identical: bool
    events: int
    #: Candidate shard count (1 = single-process).
    shards: int = 1
    #: Set when the case cannot run the candidate configuration at all
    #: (e.g. an unpartitionable topology); ``identical`` is False then.
    skipped: Optional[str] = None
    #: Top-level document keys whose values differ (diagnostic aid).
    diverging_keys: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "case_id": self.case_id,
            "kernel": self.kernel,
            "shards": self.shards,
            "identical": self.identical,
            "skipped": self.skipped,
            "events": self.events,
            "diverging_keys": list(self.diverging_keys),
        }


def _canonical_document(case: PerfCase) -> tuple[str, int]:
    """Run ``case`` once; returns (canonical JSON, events executed)."""
    spec = case.build()
    result = ScenarioRunner().run(spec)
    document = result.to_dict()
    # Which engine ran is spec identity, not simulation outcome.
    document["spec"].pop("engine", None)
    return json.dumps(document, sort_keys=True), result.events_executed


def _shard_skip_reason(spec) -> Optional[str]:
    """Why ``spec`` cannot run sharded; ``None`` when it can.

    Resolves the cut against the built (traffic-free) topology, so a case
    that would crash mid-differential -- switch-level topology, more
    shards than pods/leaves -- is skipped up front with the partitioner's
    own message.
    """
    from repro.netsim.partition import partition_topology

    runner = ScenarioRunner()
    try:
        runner.validate(spec)
        topology = runner.build(spec)
        partition_topology(topology, spec.engine.shards,
                           spec.engine.partition)
    except ValueError as exc:
        return str(exc)
    return None


def run_differential(case: PerfCase, kernel: str = "heap",
                     shards: int = 1,
                     partition: Optional[str] = None) -> DifferentialResult:
    """Diff one case: single-process heap oracle vs the candidate engine."""
    candidate = case_with_engine(case, kernel=kernel, shards=shards,
                                 partition=partition)
    if shards > 1:
        reason = _shard_skip_reason(candidate.build())
        if reason is not None:
            return DifferentialResult(case_id=case.case_id, kernel=kernel,
                                      identical=False, events=0,
                                      shards=shards, skipped=reason)
    oracle_doc, events = _canonical_document(
        case_with_engine(case, kernel="heap", shards=1))
    candidate_doc, _ = _canonical_document(candidate)
    identical = oracle_doc == candidate_doc
    diverging: List[str] = []
    if not identical:
        oracle = json.loads(oracle_doc)
        candidate_parsed = json.loads(candidate_doc)
        diverging = sorted(
            key for key in set(oracle) | set(candidate_parsed)
            if oracle.get(key) != candidate_parsed.get(key))
    return DifferentialResult(case_id=case.case_id, kernel=kernel,
                              identical=identical, events=events,
                              shards=shards, diverging_keys=diverging)


def run_differentials(cases: Sequence[PerfCase], kernel: str = "heap",
                      shards: int = 1, partition: Optional[str] = None,
                      progress=None) -> List[DifferentialResult]:
    """Diff every case; ``progress`` is called after each one."""
    results = []
    for case in cases:
        outcome = run_differential(case, kernel=kernel, shards=shards,
                                   partition=partition)
        results.append(outcome)
        if progress is not None:
            progress(outcome)
    return results
