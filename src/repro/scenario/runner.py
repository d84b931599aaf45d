"""Executes a :class:`~repro.scenario.spec.ScenarioSpec` and returns results.

The runner resolves each component through its registry (schemes, topologies,
workloads, transport profiles), instantiates the topology, generates every
workload from an independent seeded substream, injects the traffic, runs the
simulation, and wraps the outcome in a typed :class:`ScenarioResult`.

Injection order matters for reproducibility (simultaneous events fire in
scheduling order): query flows (``query_id`` set) are injected first, then
everything else, each group in workload-list order -- the exact order of the
original figure harnesses.  :meth:`ScenarioRunner.build` and
:meth:`ScenarioRunner.flow_order` are the sharded executor's setup too.

Every run numbers its own flows and queries from 1, in generation order
(:meth:`ScenarioRunner.flow_order`).  Flow ids feed the ECMP path hash, so
a run's paths, and with them its document, are a function of its spec
alone, however many runs came before it in the process.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Collection, Dict, List, Optional,
                    Sequence, Tuple)

from repro.core.registry import SCHEMES, make_buffer_manager
from repro.lb.registry import LOAD_BALANCERS, make_load_balancer
from repro.metrics.flows import FlowStats
from repro.metrics.percentiles import mean, percentile
from repro.netsim.transport.factory import make_transport
from repro.scenario.spec import ScenarioSpec, WorkloadSpec
from repro.scenario.topologies import (
    LEVEL_SWITCH,
    TOPOLOGIES,
    make_topology,
    topology_level,
)
from repro.scenario.transports import TRANSPORT_PROFILES, make_transport_config
from repro.scenario.workloads import WORKLOADS, WorkloadContext, make_workload
from repro.sim.engine import Simulator
from repro.sim.kernel import make_kernel
from repro.sim.rng import SeededRNG
from repro.switchsim.packet import Packet
from repro.switchsim.scheduler import make_scheduler
from repro.workloads.burst import PacketSchedule
from repro.workloads.spec import FlowSpec, number_flows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (bus uses spec)
    from repro.scenario.timeline import FabricTimeline
    from repro.telemetry.bus import TelemetryBus


@dataclass
class ScenarioResult:
    """Everything a harness needs from one scenario run.

    Attributes:
        spec: the executed scenario.
        topology: the instantiated topology object (network, switches,
            traces...).
        flow_stats: per-flow / per-query statistics; ``None`` for
            packet-level scenarios (they have no transport flows).
        level: ``network`` or ``switch``.
        events_executed: simulation events executed by the run (sampler
            and recovery-probe ticks excluded, so the count matches a
            telemetry-off run).
        final_time: the simulation clock when the run ended.
        telemetry: the sampling bus of a telemetry-enabled run (``None``
            otherwise); its document lands under ``to_dict()["telemetry"]``.
        timeline: the executed fabric event timeline of a run with
            ``fabric.events`` (``None`` otherwise); its document -- applied
            events plus per-failure recovery times -- lands under
            ``to_dict()["fabric_events"]``.
    """

    spec: ScenarioSpec
    topology: object
    flow_stats: Optional[FlowStats] = None
    level: str = "network"
    events_executed: int = 0
    final_time: float = 0.0
    telemetry: Optional["TelemetryBus"] = None
    timeline: Optional["FabricTimeline"] = None

    # -- uniform switch access -----------------------------------------
    def switches(self) -> List[object]:
        """All :class:`SharedMemorySwitch` instances of the topology."""
        nodes = self.topology.all_switches()
        return [getattr(node, "switch", node) for node in nodes]

    @property
    def switch(self):
        """The switch of a single-switch scenario (first switch otherwise)."""
        return self.switches()[0]

    @property
    def switch_stats(self):
        """Stats of the (first) switch -- the single-switch harness shape."""
        return self.switch.stats

    def total_drops(self) -> int:
        return sum(s.stats.total_lost_packets for s in self.switches())

    def total_expelled(self) -> int:
        return sum(s.stats.expelled_packets for s in self.switches())

    # -- summary ------------------------------------------------------
    def summary_row(self) -> Dict[str, object]:
        """One flat row of identity + headline metrics (comparison tables)."""
        row: Dict[str, object] = {
            "scenario": self.spec.name,
            "scheme": self.spec.scheme.name,
            "topology": self.spec.topology.kind,
            "seed": self.spec.seed,
        }
        # Only a non-default policy is identified: default (ecmp) rows keep
        # their pre-LB shape, so stored goldens and explicit-ecmp identity
        # stay byte-exact.
        if not self.spec.lb.is_default():
            row["lb"] = self.spec.lb.name
        for key, value in sorted(self.spec.scheme.kwargs.items()):
            if isinstance(value, (int, float, str, bool)):
                row[key] = value
        stats_drops = sum(s.stats.dropped_packets for s in self.switches())
        if self.flow_stats is not None:
            stats = self.flow_stats
            row["flows"] = len(stats.completed_flows())
            row["completion"] = round(stats.completion_fraction(), 4)
            fcts = stats.fct_values()
            if fcts:
                row["avg_fct_ms"] = mean(fcts) * 1e3
                row["p99_fct_ms"] = percentile(fcts, 99) * 1e3
                row["avg_fct_slowdown"] = mean(stats.fct_slowdowns())
            qcts = stats.qct_values()
            if qcts:
                row["queries"] = len(stats.completed_queries())
                row["avg_qct_ms"] = mean(qcts) * 1e3
                row["p99_qct_ms"] = percentile(qcts, 99) * 1e3
                row["avg_qct_slowdown"] = mean(stats.qct_slowdowns())
        row["drops"] = stats_drops
        row["expelled"] = self.total_expelled()
        if self.timeline is not None and self.timeline.recoveries:
            times = self.timeline.recovery_times()
            finite = [t for t in times if t is not None]
            # The headline: the slowest recovery, or None when some failure
            # never re-stabilized inside the horizon.
            row["recovery_ms"] = (max(finite) * 1e3
                                  if len(finite) == len(times) else None)
        return row

    def flow_records(self) -> List[Dict[str, object]]:
        """Per-flow identity + timing records, sorted by flow id.

        The shared flow section of :meth:`to_dict` documents and the
        ``artifacts["flows"]`` payload campaign stores persist: full
        identity (not just timing), so stored documents double as
        replayable traces *and* carry everything the analysis toolkit
        needs for FCT/slowdown CDFs.
        """
        if self.flow_stats is None:
            return []
        return [
            {
                "flow_id": record.flow_id,
                "src": record.src,
                "dst": record.dst,
                "size_bytes": record.size_bytes,
                "priority": record.priority,
                "start_time": record.start_time,
                "finish_time": record.finish_time,
            }
            for record in sorted(self.flow_stats.flows.values(),
                                 key=lambda r: r.flow_id)
        ]

    def to_dict(self) -> Dict[str, object]:
        """A deterministic plain-dict form of the run's observable outcome.

        Two executions of the same spec + seed must produce byte-identical
        ``json.dumps(result.to_dict())`` output -- across processes and
        regardless of what ran earlier -- which is exactly what the
        determinism regression tests pin.  Includes the full spec, headline
        summary, per-switch counters and the per-flow completion times.
        """
        doc: Dict[str, object] = {
            "spec": self.spec.to_dict(),
            "level": self.level,
            "summary": self.summary_row(),
            "switches": [s.stats.summary() for s in self.switches()],
            # Every stored run self-reports its size: the perf harness is no
            # longer the only place events/sec can be computed from.
            "sim": {
                "events_executed": self.events_executed,
                "final_time": self.final_time,
            },
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry.to_dict()
        if self.timeline is not None:
            doc["fabric_events"] = self.timeline.to_dict()
        if self.flow_stats is not None:
            # Full per-flow identity (not just timing): the document doubles
            # as a flow trace, replayable as a ``fixed`` workload's flows.
            doc["flows"] = self.flow_records()
            # The ideal-FCT context (repro.metrics.flows.ideal_fct inputs):
            # with it, any reader of the stored document can recompute
            # per-flow slowdowns without rebuilding the topology.
            doc["fct"] = {
                "bottleneck_bps": self.flow_stats.bottleneck_bps,
                "base_rtt": self.flow_stats.base_rtt,
            }
        return doc

    def to_experiment_result(self):
        """The summary row wrapped as an ExperimentResult (campaign layer)."""
        # Imported lazily: repro.experiments.common builds on this package.
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            f"scenario:{self.spec.name}",
            notes=self.spec.label(),
        )
        result.add_row(**self.summary_row())
        # Sampled series ride along as an artifact, so campaign ResultStore
        # entries of telemetry-enabled runs keep their queue dynamics.
        if self.telemetry is not None:
            result.artifacts["telemetry"] = self.telemetry.to_dict()
        # Per-flow records + ideal-FCT context make every stored campaign
        # entry self-reporting: the analysis toolkit (repro.analysis) builds
        # FCT/slowdown CDFs straight from the store, no re-simulation.
        if self.flow_stats is not None:
            result.artifacts["flows"] = {
                "bottleneck_bps": self.flow_stats.bottleneck_bps,
                "base_rtt": self.flow_stats.base_rtt,
                "records": self.flow_records(),
            }
        return result


class ScenarioRunner:
    """Instantiates and executes scenarios."""

    def run(self, spec: ScenarioSpec,
            on_sample: Optional[Callable] = None) -> ScenarioResult:
        if spec.engine.shards > 1:
            # Conservative-parallel execution: the sharded executor spawns
            # one process per shard and merges a byte-identical result.
            from repro.sim.shard import run_sharded

            return run_sharded(spec, on_sample=on_sample)
        self.validate(spec)
        topology = self.build(spec)
        level = topology_level(spec.topology.kind)

        # The fabric event timeline is scheduled before any traffic, so an
        # event at the same instant as a flow arrival fires first -- a
        # fixed, documented equal-timestamp ordering.
        timeline = None
        if spec.fabric.events:
            from repro.scenario.timeline import FabricTimeline

            timeline = FabricTimeline(spec.fabric.events, topology.network,
                                      horizon=spec.duration * spec.run_slack)
            timeline.schedule()

        # The bus attaches before any traffic is scheduled, so its tick
        # events are read-only observers interleaved with (but never
        # perturbing) the workload -- a telemetry-enabled run produces the
        # same outcome document as a disabled one, plus the series.
        bus = None
        if spec.telemetry.enabled:
            from repro.telemetry.bus import TelemetryBus

            bus = TelemetryBus(spec.telemetry, topology.sim,
                               horizon=spec.duration * spec.run_slack)
            bus.attach(topology)
            bus.on_sample = on_sample
            bus.start()

        if level == LEVEL_SWITCH:
            self._run_packet_level(spec, topology,
                                   self._generate(spec, topology))
            flow_stats = None
        else:
            self._run_network_level(spec, topology,
                                    self.flow_order(spec, topology))
            flow_stats = topology.network.flow_stats
        sim = topology.sim
        # Sampler and recovery-probe ticks are excluded so the reported
        # size reflects the traffic, not the observers.
        events = sim.events_executed - (bus.ticks if bus is not None else 0)
        if timeline is not None:
            events -= timeline.ticks
        return ScenarioResult(spec=spec, topology=topology,
                              flow_stats=flow_stats, level=level,
                              events_executed=events, final_time=sim.now,
                              telemetry=bus, timeline=timeline)

    def build(self, spec: ScenarioSpec):
        """The wired, traffic-free topology of ``spec``.

        The one place a spec becomes a topology: the scheme's buffer
        managers, a simulator on the spec's engine kernel, the fabric
        section merged into the builder params, then the alpha overrides
        and one load-balancer instance per switch.  The sharded executor
        (parent and every worker) and the ``validate`` CLI build through
        here too.
        """
        manager_factory = lambda: make_buffer_manager(  # noqa: E731
            spec.scheme.name, **spec.scheme.kwargs)
        topology = make_topology(
            spec.topology.kind, manager_factory,
            simulator=Simulator(kernel=make_kernel(spec.engine.kernel)),
            **spec.resolved_topology_params())
        overrides = spec.alpha_overrides
        if overrides:
            for node in topology.all_switches():
                for queue in getattr(node, "switch", node).queue_views():
                    if queue.class_index in overrides:
                        queue.alpha_override = overrides[queue.class_index]
        # One fresh policy per switch (never shared state), ecmp included:
        # binding the passthrough is a no-op on the data path but keeps the
        # attach machinery exercised.  Bare switches have no routing stage
        # (validate rejects a non-default lb there).
        if topology_level(spec.topology.kind) != LEVEL_SWITCH:
            for node in topology.all_switches():
                node.set_load_balancer(
                    make_load_balancer(spec.lb.name, **spec.lb.kwargs))
        return topology

    def flow_order(self, spec: ScenarioSpec,
                   topology) -> List[Tuple[str, List[FlowSpec]]]:
        """Every workload's flows in injection order, grouped by protocol.

        Generates the workloads of a network-level ``spec``, numbers the
        flows without a pinned id 1, 2, ... in workload-list order, and
        checks them before anything is scheduled: transport flows only,
        unique flow ids (``Network.register_flow`` checks the hosts).  Returns
        ``(protocol, flows)`` groups -- query flows first, then the rest,
        each in workload-list order -- each workload's transport resolved
        (its own or the scenario default).  The single-process run injects
        the groups; the sharded executor ships the same order to its
        workers.
        """
        seen_ids: Dict[int, str] = {}
        flow_ids = itertools.count(1)
        generated = self._generate(spec, topology)
        for workload, flows in generated:
            if any(not isinstance(f, FlowSpec) for f in flows):
                raise ValueError(
                    f"workload {workload.kind!r} produced raw packet arrivals; "
                    "it needs a packet-level topology (e.g. raw_switch)")
            for flow in number_flows(flows, flow_ids):
                # FlowStats keys records by flow_id and would silently
                # overwrite on collision, corrupting every metric.  A
                # 'fixed' workload's pinned ids are the one way to get here.
                if flow.flow_id in seen_ids:
                    raise ValueError(
                        f"duplicate flow_id {flow.flow_id}: workloads "
                        f"{seen_ids[flow.flow_id]!r} and {workload.kind!r} "
                        "both produced it.  Drop the pinned 'flow_id' "
                        "entries from the fixed workload so the run "
                        "numbers its flows itself.")
                seen_ids[flow.flow_id] = workload.kind
        default_protocol = spec.transport.protocol
        groups: List[Tuple[str, List[FlowSpec]]] = []
        for query_pass in (True, False):
            for workload, flows in generated:
                group = [f for f in flows
                         if (f.query_id is not None) == query_pass]
                if group:
                    groups.append(
                        (workload.transport or default_protocol, group))
        return groups

    # -- validation ----------------------------------------------------
    def validate(self, spec: ScenarioSpec) -> None:
        """Fail fast with a precise message instead of mid-simulation.

        Every named section resolves through its registry, and the kwargs
        behind the name bind against the factory's signature, so a typo
        fails here, naming its dotted key, not as a ``TypeError`` mid-run.
        """
        spec.validate()
        SCHEMES.check(spec.scheme.name, spec.scheme.kwargs, "scheme.kwargs")
        for index, workload in enumerate(spec.workloads):
            # The runner passes each workload its context as ``ctx``.
            WORKLOADS.check(workload.kind, workload.params,
                            f"workloads[{index}].params", None)
        LOAD_BALANCERS.check(spec.lb.name, spec.lb.kwargs, "lb.kwargs")
        # Policy values resolve eagerly too (a bad flowlet gap raises here).
        make_load_balancer(spec.lb.name, **spec.lb.kwargs)
        if topology_level(spec.topology.kind) == LEVEL_SWITCH:
            if not spec.lb.is_default():
                raise ValueError(
                    f"lb {spec.lb.name!r} needs a network-level topology; "
                    f"{spec.topology.kind!r} has no routing stage")
            if spec.fabric.events:
                raise ValueError(
                    "fabric.events needs a network-level topology; "
                    f"{spec.topology.kind!r} has no links to fail or repair")
        if spec.engine.shards > 1:
            if not hasattr(os, "fork"):
                raise ValueError(
                    "engine.shards > 1 is POSIX only: shard workers are "
                    f"forked and os.fork is missing on {sys.platform}")
            if topology_level(spec.topology.kind) == LEVEL_SWITCH:
                raise ValueError(
                    f"engine.shards > 1 needs a network-level topology; "
                    f"{spec.topology.kind!r} has no link graph to "
                    "partition")
            if spec.fabric.events:
                raise ValueError(
                    "engine.shards > 1 cannot run a fabric event timeline "
                    "yet: mid-run failures would change cut-link state "
                    "under the conservative lookahead.  Static "
                    "fabric.failures/degraded are supported")
        # Merging the fabric section checks for fabric/topology collisions.
        TOPOLOGIES.check(spec.topology.kind, spec.resolved_topology_params(),
                         "topology.params", manager_factory=None,
                         simulator=None)
        if "scheduler" in spec.topology.params:  # a name typo raises here
            make_scheduler(str(spec.topology.params["scheduler"]))
        try:
            TRANSPORT_PROFILES.check(spec.transport.profile or "default",
                                     spec.transport.config, "transport.config")
        except KeyError as err:
            raise KeyError(f"transport.profile: {err.args[0]}") from None
        # Protocol names resolve eagerly too (raises KeyError on typos).
        make_transport(spec.transport.protocol)
        for workload in spec.workloads:
            if workload.transport is not None:
                make_transport(workload.transport)
        if topology_level(spec.topology.kind) == LEVEL_SWITCH:
            # A packet schedule is O(1) to build, so a rate, duration or
            # packet size it cannot be built from fails here, not as a run
            # that never ends.
            self._packet_sources(self._generate(spec, None), 0.0)

    # -- internals -----------------------------------------------------
    def _generate(self, spec: ScenarioSpec,
                  topology) -> List[Tuple[WorkloadSpec, Sequence]]:
        """Every workload's output from its own seeded substream, in
        workload-list order."""
        rng = SeededRNG(spec.seed)
        query_ids = itertools.count(1)
        hosts = list(getattr(topology, "hosts", []) or [])
        link_rate_bps = getattr(topology, "link_rate_bps", 0.0)
        generated: List[Tuple[WorkloadSpec, Sequence]] = []
        for workload in spec.workloads:
            ctx = WorkloadContext(
                rng=rng.child(workload.rng_label or workload.kind),
                duration=spec.duration,
                hosts=hosts,
                link_rate_bps=link_rate_bps,
                topology=topology,
                query_ids=query_ids,
            )
            generated.append(
                (workload, make_workload(workload.kind, workload.params, ctx))
            )
        return generated

    def _run_network_level(self, spec, topology, groups) -> None:
        network = topology.network
        network.set_transport_config(make_transport_config(spec.transport))
        for protocol, flows in groups:
            network.inject_flows(flows, transport=protocol)
        network.run(until=spec.duration * spec.run_slack)

    def _run_packet_level(self, spec, topology, generated) -> None:
        sim = topology.sim
        # One merged stream: the heap holds the next arrival, and each
        # workload's schedule is read only as far as the run has reached.
        sim.kernel.push_streams(self._packet_sources(generated, sim.now),
                                topology.switch.receive, Packet)
        sim.run(until=spec.duration * spec.run_slack)

    @staticmethod
    def _packet_sources(generated, now: float) -> List[Collection]:
        """Every workload's ``(time, size, port)`` arrivals, one source per
        workload in workload-list order, validated before anything is
        scheduled."""
        sources = []
        for workload, produced in generated:
            if isinstance(produced, PacketSchedule):
                # Time-ordered by construction: nothing is generated to
                # find the earliest arrival.
                earliest = produced.start
            elif any(isinstance(a, FlowSpec) for a in produced):
                raise ValueError(
                    f"workload {workload.kind!r} produced transport flows; "
                    "it needs a network-level topology")
            else:
                earliest = min((a[0] for a in produced), default=now)
            # The validation ``sim.at`` would do (``push_streams`` rejects
            # NaN).
            if earliest < now:
                raise ValueError(
                    f"cannot schedule into the past: time={earliest} "
                    f"(now={now})")
            sources.append(produced)
        return sources


def run_scenario(spec: ScenarioSpec,
                 on_sample: Optional[Callable] = None) -> ScenarioResult:
    """Convenience one-shot execution of a scenario.

    ``on_sample`` is forwarded to the telemetry bus (called after every
    sampling tick; the live dashboard plugs in here) and ignored when the
    spec has telemetry disabled.
    """
    return ScenarioRunner().run(spec, on_sample=on_sample)
