"""The per-layer ledger: every name the traced run reports, with its unit.

Layer = module name below ``repro``.  ``BENCHMARK.json``'s ``per_layer``
list is generated from :data:`LAYERS` (``python3 bench/ledger.py`` prints
it), and the traced session refuses to report a name that is not here or
to omit one that is, so the two cannot drift apart.  Every workload
reports every name; one that does not apply to a workload reads 0 there
(``campaign.*`` on ``switch_burst``), and one whose hook point no longer
resolves reads ``null`` in the info document and trace file.

Timings are **host** time; ``model.*``, ``switchsim.*`` / ``core.*`` packet
counters and every ``*.calls`` / ``sim.events`` count are **simulated**
behaviour or exact work counts and must repeat exactly for a given seed.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from specs import SWITCH_BURST_SCHEMES
from tracing import BUCKET_NAMES

LOWER, HIGHER = "lower", "higher"

_PHASES = (
    ("scenario.parse_s", "s", LOWER),
    ("scenario.validate_s", "s", LOWER),
    ("topology.build_s", "s", LOWER),
    ("workloads.generate_s", "s", LOWER),
    ("workloads.flows", "count", LOWER),
    ("netsim.inject_s", "s", LOWER),
    ("sim.dispatch_s", "s", LOWER),
    ("sim.events", "count", LOWER),
    ("sim.us_per_event", "us", LOWER),
    ("scenario.collect_s", "s", LOWER),
    ("scenario.serialize_s", "s", LOWER),
    ("scenario.doc_bytes", "bytes", LOWER),
    ("scenario.other_s", "s", LOWER),
)

_BUCKETS = tuple(
    entry for bucket in BUCKET_NAMES
    for entry in ((f"{bucket}.calls", "count", LOWER),
                  (f"{bucket}.self_pct", "%", LOWER)))

_MODEL = (
    ("switchsim.arrived_packets", "count", LOWER),
    ("switchsim.dropped_packets", "count", LOWER),
    ("switchsim.ecn_marked_packets", "count", LOWER),
    ("switchsim.max_occupancy_bytes", "bytes", LOWER),
    ("core.expelled_packets", "count", LOWER),
    ("netsim.transport.timeouts", "count", LOWER),
    ("lb.decisions", "count", LOWER),
    ("lb.reroutes", "count", LOWER),
    ("lb.flowlets", "count", LOWER),
    ("telemetry.ticks", "count", LOWER),
    ("telemetry.doc_bytes", "bytes", LOWER),
    ("scenario.timeline.recovery_ms", "ms", LOWER),
    ("model.flows_completed", "count", HIGHER),
    ("model.avg_fct_slowdown", "ratio", LOWER),
    ("model.p99_qct_ms", "ms", LOWER),
    ("model.qct_gain_pct", "%", HIGHER),
    ("model.sim_loss_pct", "%", LOWER),
)

_SAME_LAYER = tuple(
    entry for scheme in SWITCH_BURST_SCHEMES
    for entry in ((f"core.{scheme}.wall_s", "s", LOWER),
                  (f"core.{scheme}.us_per_packet", "us", LOWER),
                  (f"core.{scheme}.loss_pct", "%", LOWER),
                  (f"core.{scheme}.events", "count", LOWER))
) + (
    ("fabric.dt.wall_s", "s", LOWER),
    ("fabric.occamy.wall_s", "s", LOWER),
    ("fabric.occamy_over_dt", "ratio", LOWER),
    ("sim.kernel.pooled_over_heap", "ratio", LOWER),
    ("sim.kernel.pooled_identical", "bool", HIGHER),
    ("telemetry.on_over_off", "ratio", LOWER),
    ("lb.flowlet_over_ecmp", "ratio", LOWER),
)

_ORCHESTRATION = (
    ("campaign.expand_s", "s", LOWER),
    ("campaign.runs", "count", LOWER),
    ("campaign.inline_s", "s", LOWER),
    ("campaign.sim_s", "s", LOWER),
    ("campaign.overhead_ms_per_run", "ms", LOWER),
    ("campaign.pool_s", "s", LOWER),
    ("farm.subprocess_s", "s", LOWER),
    ("farm.spawn_ms_per_run", "ms", LOWER),
    ("farm.retries", "count", LOWER),
    ("campaign.resume_s", "s", LOWER),
    ("campaign.cache_hits", "count", HIGHER),
    ("store.save_s", "s", LOWER),
    ("store.load_s", "s", LOWER),
    ("store.bytes", "bytes", LOWER),
    ("analysis.load_s", "s", LOWER),
    ("analysis.fct_s", "s", LOWER),
    ("analysis.compare_s", "s", LOWER),
    ("analysis.rows", "count", LOWER),
)

_SHARD_AND_TRACE = (
    ("sim.shard.rounds", "count", LOWER),
    ("sim.shard.handoffs", "count", LOWER),
    ("sim.shard.identical", "bool", HIGHER),
    # Informational: never cite a sharding speed-up from a <= 2-core box.
    ("sim.shard.wall_over_single", "ratio", LOWER),
    ("trace.overhead_pct", "%", LOWER),
)

#: (name, unit, better) for every per-layer metric, in report order.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    _PHASES + _BUCKETS + _MODEL + _SAME_LAYER + _ORCHESTRATION
    + _SHARD_AND_TRACE)

UNITS = {name: unit for name, unit, _ in LAYERS}


def per_layer_entries() -> List[dict]:
    """The ``per_layer`` list of BENCHMARK.json."""
    return [{"name": name, "unit": unit, "better": better}
            for name, unit, better in LAYERS]


if __name__ == "__main__":
    print(json.dumps(per_layer_entries(), indent=2))
