"""The sampling bus: pull-based ring-buffer time series over a running scenario.

The bus is *pull-based*: it never instruments the packet/event path.  On its
own sim-time ticks (self-rescheduling events at a fixed cadence) it reads
counters the hot layers already maintain -- switch occupancy and admit/drop
totals, per-port backlogs, per-priority active-queue counts, host NIC byte
counters and backlogs, link byte counters and in-flight depth, and the
simulator's event counter -- and pushes one sample per series into
fixed-capacity :class:`~repro.telemetry.series.RingSeries` rings.

Zero-cost-when-off falls out of the design: with telemetry disabled no bus
exists, no tick events are scheduled, and no hot-path code carries a
telemetry branch.  The one mid-run need -- a live ``events_executed``
reading -- costs nothing extra: the dispatch loop keeps the counter current
per event for every run.

Sampler ticks are read-only, so enabling telemetry cannot change simulation
outcomes: the relative order of traffic events is preserved and the clock
still ends at the horizon.  The one bookkeeping wrinkle is that ticks are
themselves events; every reported event count subtracts them (see
:meth:`TelemetryBus.events_now`), so telemetry-on and telemetry-off runs
report identical event totals.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, List, Optional, Tuple

from repro.scenario.spec import TelemetrySpec
from repro.sim.engine import Simulator
from repro.telemetry.series import RingSeries


class TelemetryBus:
    """Samples a topology's counters into ring-buffer time series.

    Args:
        spec: the scenario's telemetry section (must be enabled).
        sim: the simulator driving the run.
        horizon: the run horizon in sim seconds (``duration * run_slack``);
            with the default cadence (``spec.interval is None``) the ring
            spans exactly this window without wrapping.

    Attributes:
        interval: resolved sampling cadence in sim seconds.
        ticks: sampler ticks executed so far.
        time: ring of sim-clock sample times (the shared x-axis).
        series: name -> :class:`RingSeries`, in registration order.
        on_sample: optional hook called with the bus after every tick
            (the live dashboard plugs in here); it runs outside the
            simulation state, so it must not schedule or mutate.
    """

    def __init__(self, spec: TelemetrySpec, sim: Simulator,
                 horizon: float) -> None:
        spec.validate()
        if not spec.enabled:
            raise ValueError("TelemetryBus requires an enabled TelemetrySpec")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon!r}")
        self.sim = sim
        self.horizon = horizon
        self.capacity = int(spec.capacity)
        # Checked here, not only in TelemetrySpec.validate(): the bus is
        # also constructed directly (library users, the --live force-enable
        # path) with duck-typed specs whose validate() may not enforce it,
        # and capacity 1 would divide by zero in the default cadence below.
        if self.capacity < 2:
            raise ValueError(
                f"telemetry.capacity must be >= 2, got {spec.capacity!r}")
        # Default cadence: one ring slot per sample across [0, horizon],
        # so a default-configured run never wraps.
        self.interval = (float(spec.interval) if spec.interval is not None
                         else horizon / (self.capacity - 1))
        self.per_port = spec.per_port
        self.ticks = 0
        self.time = RingSeries(self.capacity)
        self.series: Dict[str, RingSeries] = {}
        self._probes: List[Tuple[RingSeries, Callable[[], float]]] = []
        self.on_sample: Optional[Callable[["TelemetryBus"], None]] = None
        self._t0 = 0.0
        self._started = False
        # Live objects kept for dashboard snapshots (never serialized).
        self._switches: List[Tuple[str, object]] = []
        #: Wall-clock time of each tick (dashboard events/sec only; kept
        #: out of to_dict() so stored documents stay deterministic).
        self.wall = RingSeries(self.capacity)

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def add_probe(self, name: str, read: Callable[[], float]) -> None:
        """Register a named zero-argument counter reader."""
        if name in self.series:
            raise ValueError(f"duplicate telemetry series {name!r}")
        ring = RingSeries(self.capacity)
        self.series[name] = ring
        self._probes.append((ring, read))

    def attach(self, topology) -> None:
        """Register the standard probe set for a scenario topology.

        Works with both topology shapes the runner produces: network-level
        builders (hosts + links + :class:`SwitchNode` wrappers) and the
        packet-level ``raw_switch`` (a bare switch, no network) -- host and
        link aggregates are only registered when a network exists.
        """
        self.add_probe("sim.events_executed", self.events_now)
        for node in topology.all_switches():
            switch = getattr(node, "switch", node)
            self._switches.append((switch.name, switch))
            self._attach_switch(switch.name, switch)
            # A bound load-balancer policy (repro.lb; never the ecmp
            # passthrough -- its node.lb stays None, keeping default
            # telemetry documents byte-identical) exposes its decision,
            # reroute and per-uplink counters.
            lb = getattr(node, "lb", None)
            if lb is not None:
                self._attach_lb(switch.name, node, lb)
        network = getattr(topology, "network", None)
        if network is not None:
            hosts = list(network.hosts.values())
            # network.links values are FabricLink records (wire + sender
            # side); the byte/in-flight counters live on the wire itself.
            links = [fabric.link for fabric in network.links.values()]
            self.add_probe(
                "hosts.sent_bytes",
                lambda: sum(h.sent_bytes for h in hosts))
            self.add_probe(
                "hosts.tx_backlog_packets",
                lambda: sum(h.tx_backlog_packets for h in hosts))
            self.add_probe(
                "links.bytes_carried",
                lambda: sum(k.bytes_carried for k in links))
            self.add_probe(
                "links.in_flight_packets",
                lambda: sum(len(k._in_flight) for k in links))

    def _attach_switch(self, name: str, switch) -> None:
        prefix = f"switch.{name}"
        self.add_probe(f"{prefix}.occupancy_bytes",
                       lambda: switch.occupancy_bytes)
        stats = switch.stats
        self.add_probe(f"{prefix}.admitted_packets",
                       lambda: stats.admitted_packets)
        self.add_probe(f"{prefix}.dropped_packets",
                       lambda: stats.total_lost_packets)
        for priority in range(switch.config.queues_per_port):
            self.add_probe(
                f"{prefix}.active_queues.p{priority}",
                lambda p=priority: switch.active_queue_count(p))
        if self.per_port:
            for port_id in range(switch.port_count):
                port = switch.port(port_id)
                self.add_probe(f"{prefix}.port{port_id}.backlog_bytes",
                               port.backlog_bytes)

    def _attach_lb(self, name: str, node, lb) -> None:
        prefix = f"switch.{name}.lb"
        self.add_probe(f"{prefix}.decisions", lambda: lb.decisions)
        self.add_probe(f"{prefix}.reroutes", lambda: lb.reroutes)
        self.add_probe(f"{prefix}.flowlets", lambda: lb.flowlets)
        if self.per_port:
            for port_id in node.routing.uplinks:
                self.add_probe(f"{prefix}.port{port_id}.packets",
                               lambda p=port_id: lb.port_packets.get(p, 0))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling: first tick now, then every ``interval`` seconds."""
        if self._started:
            raise RuntimeError("telemetry bus already started")
        self._started = True
        self._t0 = self.sim.now
        self.sim.at(self._t0, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        self.time.push(self.sim.now)
        self.wall.push(_time.perf_counter())
        for ring, read in self._probes:
            ring.push(read())
        if self.on_sample is not None:
            self.on_sample(self)
        next_time = self._t0 + self.ticks * self.interval
        if next_time <= self._t0 + self.horizon:
            self.sim.at(next_time, self._tick)

    def events_now(self) -> int:
        """Traffic events executed so far, with sampler ticks subtracted.

        During a tick callback ``events_executed`` counts everything that
        ran before it, including the ``ticks - 1`` earlier sampler ticks
        (the in-progress one is counted only after its callback returns).
        """
        return self.sim.events_executed - max(0, self.ticks - 1)

    # ------------------------------------------------------------------
    # Dashboard snapshots (live objects, never serialized)
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        return self.sim.now

    def total_occupancy_bytes(self) -> int:
        return sum(sw.occupancy_bytes for _, sw in self._switches)

    def peak_occupancy_bytes(self) -> int:
        return sum(sw.stats.max_occupancy_bytes for _, sw in self._switches)

    def totals(self) -> Dict[str, int]:
        """Fabric-wide admitted / dropped / expelled packet counters."""
        out = {"admitted": 0, "dropped": 0, "expelled": 0}
        for _, sw in self._switches:
            out["admitted"] += sw.stats.admitted_packets
            out["dropped"] += sw.stats.dropped_packets
            out["expelled"] += sw.stats.expelled_packets
        return out

    def hottest_ports(self, n: int = 4) -> List[Tuple[str, int]]:
        """The ``n`` largest per-port backlogs right now, hottest first."""
        backlogs = [
            (f"{name}:p{port_id}", switch.port(port_id).backlog_bytes())
            for name, switch in self._switches
            for port_id in range(switch.port_count)
        ]
        backlogs.sort(key=lambda item: (-item[1], item[0]))
        return [item for item in backlogs[:n] if item[1] > 0]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The deterministic document persisted in ``ScenarioResult``.

        Wall-clock samples are deliberately excluded: two identical runs
        must serialize byte-identically.
        """
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "ticks": self.ticks,
            "dropped_samples": self.time.dropped,
            "time": list(self.time.values()),
            "series": {name: list(ring.values())
                       for name, ring in sorted(self.series.items())},
        }
