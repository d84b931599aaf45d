"""Conservative parallel execution: one scenario, N shard processes.

The executor splits a scenario's fabric into shards at link boundaries
(:mod:`repro.netsim.partition`), runs each shard's ``Simulator`` +
``SimKernel`` in its own process, and synchronizes them in bounded rounds
with lookahead equal to the minimum cut-link propagation delay -- the
FireSim-style token rule: a packet entering a cut link at time ``t`` cannot
influence the far side before ``t + delay``, so every shard may freely
execute the window up to (but excluding) ``t_next + lookahead`` before the
next handoff exchange.  ``t_next`` is the global minimum over every shard's
earliest pending event and every handoff still in flight between processes.

Determinism is the design constraint, not a best-effort property: the merged
:class:`~repro.scenario.runner.ScenarioResult` document must be
**byte-identical** to the single-process oracle (``python -m repro.perf
differential --shards N`` is the gate).  Three rules make that hold:

* **Full build, masked execution.**  Every worker builds the *identical*
  complete topology (same construction order, salts, routing tables and
  static fabric failures/degradations), then swaps ``transmit`` on the cut
  links it owns the sending side of for a recorder -- the
  ``Link.set_failed`` method-swap idiom.  Non-owned regions carry no
  traffic (their links get a loud leak guard), so every owned component
  sees exactly the oracle's event sequence.
* **Canonical handoff order.**  The kernel orders same-timestamp events by
  a *content* key, not by scheduling history: every fabric link carries a
  stable priority derived from the sorted link list
  (``Network.assign_event_priorities``), and its arrival events occupy
  that band in the heap's ``(time, priority, seq)`` ordering.  Because
  every worker builds the identical full topology, it derives identical
  priorities -- so a cross-shard delivery event pushed with its cut link's
  priority lands at exactly the heap position the oracle's ``_arrive`` for
  that link occupies, no matter how differently the two processes arrived
  there.  Deliveries are grouped exactly like the oracle's per-link
  arrival batches (one event per distinct arrival instant per link), so
  event counts match too.
* **Event-count parity.**  The sending shard executes one maintenance
  event per handoff batch (releasing the in-flight window, mirroring the
  oracle's ``Link._arrive``), the receiving shard one delivery event per
  batch.  The merged count subtracts the maintenance events, so
  ``events_executed`` matches the oracle exactly.

Handoffs cross process boundaries over stdlib ``multiprocessing`` pipes as
JSON frames (``send_bytes``/``recv_bytes``) -- the same pickle-free framing
discipline as :mod:`repro.farm.protocol`.  Workers bucket their outbound
records by destination shard and the parent routes the encoded buckets
opaquely, so handoff volume never transits Python object serialization.

A worker that dies mid-round is detected by the parent's poll loop and the
run fails loudly with the shard's traceback instead of hanging.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import resource
import time as _time
import traceback
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.registry import make_buffer_manager
from repro.metrics.flows import FlowRecord
from repro.netsim.network import host_node_name
from repro.netsim.partition import Partition, partition_topology
from repro.netsim.transport.base import ReceiverState
from repro.netsim.transport.factory import make_transport
from repro.scenario.spec import ScenarioSpec
from repro.scenario.topologies import make_topology
from repro.scenario.transports import make_transport_config
from repro.scenario.workloads import WorkloadContext, make_workload
from repro.sim.rng import SeededRNG
from repro.switchsim.packet import Packet
from repro.workloads.spec import FlowSpec

#: Keys of ``SwitchStats.summary()`` in emission order; the merged result
#: rebuilds each owned switch's summary in exactly this order so the
#: serialized document is byte-identical to the oracle's.
_SUMMARY_KEYS = (
    "arrived_packets",
    "admitted_packets",
    "transmitted_packets",
    "dropped_packets",
    "expelled_packets",
    "evicted_packets",
    "ecn_marked_packets",
    "loss_rate",
    "max_occupancy_bytes",
)

#: Per-shard diagnostic series prefix; stripped from the merged telemetry
#: document (diagnostics must never perturb canonical output).
_SHARD_SERIES_PREFIX = "shard."


def _send(conn, message: Dict[str, object]) -> None:
    """One JSON frame over a multiprocessing pipe (farm.protocol style)."""
    conn.send_bytes(json.dumps(message).encode("utf-8"))


def _recv(conn) -> Dict[str, object]:
    return json.loads(conn.recv_bytes().decode("utf-8"))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _CutRecorder:
    """``Link.transmit`` replacement for an owned->remote cut link.

    Mirrors the healthy transmit path exactly -- counters, the in-flight
    window and the one-event-per-distinct-arrival-instant batching -- but
    schedules a local *maintenance* drain instead of a delivery, and logs
    an encoded handoff record for the round exchange.  The drain keeps the
    link's ``_in_flight`` depth (a telemetry series) identical to the
    oracle.
    """

    __slots__ = ("link", "sim", "link_id", "worker", "records")

    def __init__(self, link, link_id: int, worker: "_ShardWorker") -> None:
        self.link = link
        self.sim = link.sim
        self.link_id = link_id
        self.worker = worker
        self.records: List[List[object]] = []

    def transmit(self, packet: Packet) -> None:
        link = self.link
        link.packets_carried += 1
        link.bytes_carried += packet.size_bytes
        link._in_flight.append(packet)
        time = self.sim.now + link.delay
        if time == link._tail_time:
            link._batch_counts[-1] += 1
        else:
            link._tail_time = time
            link._batch_counts.append(1)
            queue = self.sim._queue
            heappush(queue._heap,
                     (time, link.event_priority, next(queue._counter),
                      self._drain))
        # Snapshot every field the far side needs to rebuild the packet.
        metadata = packet.metadata or None
        self.records.append([
            time, packet.size_bytes, packet.flow_id, packet.src, packet.dst,
            packet.seq, packet.payload_bytes, packet.is_ack, packet.ack_seq,
            packet.ecn_capable, packet.ecn_marked, packet.ecn_echo,
            packet.priority, packet.created_at, metadata,
        ])

    def _drain(self) -> None:
        link = self.link
        count = link._batch_counts.popleft()
        in_flight = link._in_flight
        self.worker.maintenance += 1
        for _ in range(count):
            in_flight.popleft()


def _leak_guard(name: str) -> Callable[[Packet], None]:
    def transmit(packet: Packet) -> None:
        raise RuntimeError(
            f"shard isolation violated: a packet reached non-owned link "
            f"{name} (flow {packet.flow_id}).  This is a partitioning bug "
            "-- traffic must only flow through owned nodes and recorded "
            "cut links.")
    return transmit


class _ShardWorker:
    """One shard process: full topology, masked cut links, round loop."""

    def __init__(self, conn, payload: Dict[str, object]) -> None:
        self.conn = conn
        self.payload = payload
        self.shard = int(payload["shard"])
        self.assignment: Dict[str, int] = {
            str(k): int(v) for k, v in payload["assignment"].items()}
        self.cut_links: List[Tuple[str, str]] = [
            (str(a), str(b)) for a, b in payload["cut_links"]]
        self.maintenance = 0
        self.handoffs_in = 0
        self.handoffs_out = 0
        self.rounds = 0
        self.busy_s = 0.0
        self.blocked_s = 0.0

    # -- setup ---------------------------------------------------------
    def _build(self) -> None:
        from repro.scenario.runner import ScenarioRunner
        from repro.sim.engine import Simulator
        from repro.sim.kernel import make_kernel

        spec = ScenarioSpec.from_dict(self.payload["spec"])
        self.spec = spec
        self.horizon = spec.duration * spec.run_slack
        manager_factory = lambda: make_buffer_manager(  # noqa: E731
            spec.scheme.name, **spec.scheme.kwargs)
        params = spec.resolved_topology_params()
        if spec.engine.kernel != "heap":
            params["simulator"] = Simulator(
                kernel=make_kernel(spec.engine.kernel))
        topology = make_topology(spec.topology.kind, manager_factory,
                                 **params)
        runner = ScenarioRunner()
        runner._apply_alpha_overrides(spec, topology)
        runner._apply_load_balancer(spec, topology, "network")
        self.topology = topology
        self.network = topology.network
        self.sim = topology.sim

        self.bus = None
        if spec.telemetry.enabled:
            from repro.telemetry.bus import TelemetryBus

            bus = TelemetryBus(spec.telemetry, self.sim,
                               horizon=self.horizon)
            bus.attach(topology)
            # Diagnostic series; read at the same ticks as every other
            # probe so the parent can reconstruct the oracle's event
            # series, then stripped from the merged document.
            bus.add_probe("shard.maintenance", lambda: self.maintenance)
            bus.start()
            self.bus = bus

        self.network.set_transport_config(
            make_transport_config(spec.transport))
        self._mask_links()
        self._register_flows()

    def _node(self, name: str):
        network = self.network
        if name in network.switch_nodes:
            return network.switch_nodes[name]
        return network.hosts[int(name[1:])]

    def _mask_links(self) -> None:
        me = self.shard
        assignment = self.assignment
        self.recorders: List[_CutRecorder] = []
        #: link_id -> (delivery target node, link event priority).
        self.cut_in: Dict[int, Tuple[object, int]] = {}
        cut_index = {pair: i for i, pair in enumerate(self.cut_links)}
        for (src_name, dst_name), fabric in self.network.links.items():
            src_owned = assignment[src_name] == me
            dst_owned = assignment[dst_name] == me
            link = fabric.link
            if src_owned and not dst_owned:
                if link.failed:
                    continue  # statically failed cut: blackhole locally,
                    # exactly like the oracle.
                recorder = _CutRecorder(
                    link, cut_index[(src_name, dst_name)], self)
                link.transmit = recorder.transmit  # type: ignore[method-assign]
                self.recorders.append(recorder)
            elif not src_owned:
                # No traffic may originate in non-owned territory; fail
                # loudly on the first leaked packet instead of diverging.
                link.transmit = _leak_guard(  # type: ignore[method-assign]
                    f"{src_name}->{dst_name}")
            if dst_owned and not src_owned:
                self.cut_in[cut_index[(src_name, dst_name)]] = (
                    self._node(dst_name), link.event_priority)

    def _register_flows(self) -> None:
        """Register every flow; schedule starts for owned sources.

        All flows enter the local ``FlowStats`` (completion callbacks need
        the record), in the parent's injection order.  A flow whose source
        host is owned starts through the oracle's ``Network._start_flow``
        path (one event at its start time); a flow only whose destination
        is owned gets an *eager* receiver -- ``ReceiverState`` construction
        is time-independent, so pre-installing it adds zero events.
        """
        me = self.shard
        network = self.network
        sim = self.sim
        assignment = self.assignment
        config = network.transport_config
        sender_classes: Dict[str, object] = {}
        self.owned_dst_flows: List[int] = []
        for entry in self.payload["flows"]:
            (flow_id, src, dst, size_bytes, start_time, priority,
             query_id, protocol) = entry
            flow = FlowSpec(src=src, dst=dst, size_bytes=size_bytes,
                            start_time=start_time, priority=priority,
                            query_id=query_id, flow_id=flow_id)
            network.injected_flows.append(flow)
            network.flow_stats.register_flow(FlowRecord(
                flow_id=flow_id, src=src, dst=dst, size_bytes=size_bytes,
                start_time=start_time, query_id=query_id,
                priority=priority))
            src_owned = assignment[host_node_name(src)] == me
            dst_owned = assignment[host_node_name(dst)] == me
            if dst_owned:
                self.owned_dst_flows.append(flow_id)
            if src_owned:
                sender_cls = sender_classes.get(protocol)
                if sender_cls is None:
                    sender_cls = sender_classes[protocol] = (
                        make_transport(protocol))
                sim.at(start_time,
                       lambda s=flow, cls=sender_cls, cfg=config:
                       network._start_flow(s, cls, cfg))
            elif dst_owned:
                receiver = ReceiverState(
                    flow, config, on_complete=network._flow_completed)
                network.hosts[dst].add_receiver(receiver)

    # -- round machinery ----------------------------------------------
    def _apply_handoffs(self, blobs: List[str]) -> None:
        """Decode inbound batches; push one delivery event per batch.

        Batches are the oracle's per-link arrival groups (arrival times
        are monotone per link, so the groups are exactly the consecutive
        equal-``t_arr`` runs in transmit order).  Each batch's delivery
        event is pushed with the cut link's event priority, which is the
        whole ordering story: the heap's ``(time, priority, seq)`` order
        puts it exactly where the oracle's ``_arrive`` for that link runs,
        relative to every local event at the same instant.
        """
        queue = self.sim._queue
        heap = queue._heap
        counter = queue._counter
        total = 0
        for blob in blobs:
            for link_id_str, records in json.loads(blob).items():
                dst_node, priority = self.cut_in[int(link_id_str)]
                total += len(records)
                i = 0
                while i < len(records):
                    t_arr = records[i][0]
                    j = i
                    while j < len(records) and records[j][0] == t_arr:
                        j += 1
                    batch = records[i:j]
                    heappush(heap, (t_arr, priority, next(counter),
                                    lambda b=batch, n=dst_node:
                                    self._deliver(n, b)))
                    i = j
        self.handoffs_in += total

    def _deliver(self, dst_node, batch: List[List[object]]) -> None:
        for r in batch:
            packet = Packet(
                size_bytes=r[1], flow_id=r[2], src=r[3], dst=r[4],
                seq=r[5], payload_bytes=r[6], is_ack=r[7], ack_seq=r[8],
                ecn_capable=r[9], ecn_marked=r[10], ecn_echo=r[11],
                priority=r[12], created_at=r[13])
            metadata = r[14]
            if metadata:
                packet.metadata.update(metadata)
            dst_node.deliver(packet)

    def _collect_outbound(self) -> Tuple[Dict[str, str], Optional[float]]:
        """Bucket this round's recorded handoffs by destination shard."""
        assignment = self.assignment
        buckets: Dict[int, Dict[str, List[List[object]]]] = {}
        min_arr: Optional[float] = None
        for recorder in self.recorders:
            records = recorder.records
            if not records:
                continue
            dst_shard = assignment[self.cut_links[recorder.link_id][1]]
            buckets.setdefault(dst_shard, {})[str(recorder.link_id)] = records
            first = records[0][0]  # arrival times are monotone per link
            if min_arr is None or first < min_arr:
                min_arr = first
            self.handoffs_out += len(records)
            recorder.records = []
        return ({str(shard): json.dumps(bucket)
                 for shard, bucket in buckets.items()}, min_arr)

    def run(self) -> None:
        self._build()
        sim = self.sim
        conn = self.conn
        while True:
            t0 = _time.perf_counter()
            msg = _recv(conn)
            t1 = _time.perf_counter()
            self.blocked_s += t1 - t0
            blobs = msg["handoffs"]
            if blobs:
                self._apply_handoffs(blobs)
            sim.run(until=msg["horizon"])
            self.busy_s += _time.perf_counter() - t1
            self.rounds += 1
            if msg["final"]:
                _send(conn, self._final_report())
                return
            handoffs, min_arr = self._collect_outbound()
            _send(conn, {
                "type": "round",
                "peek": sim._queue.peek_time(),
                "min_arr": min_arr,
                "handoffs": handoffs,
                "now": sim.now,
                "events": sim.events_executed,
                "handoffs_out": self.handoffs_out,
            })

    def _final_report(self) -> Dict[str, object]:
        me = self.shard
        switches: Dict[str, Dict[str, object]] = {}
        for node in self.topology.all_switches():
            if self.assignment[node.name] != me:
                continue
            switch = getattr(node, "switch", node)
            switches[node.name] = switch.stats.summary()
        finishes = []
        flows = self.network.flow_stats.flows
        for flow_id in self.owned_dst_flows:
            record = flows[flow_id]
            if record.finish_time is not None:
                finishes.append([flow_id, record.finish_time])
        bus = self.bus
        return {
            "type": "final",
            "final_time": self.sim.now,
            "events": self.sim.events_executed,
            "ticks": bus.ticks if bus is not None else 0,
            "maintenance": self.maintenance,
            "switches": switches,
            "finishes": finishes,
            "telemetry": bus.to_dict() if bus is not None else None,
            "shard": {
                "shard": me,
                "nodes": sum(1 for s in self.assignment.values() if s == me),
                "events": self.sim.events_executed,
                "rounds": self.rounds,
                "handoffs_out": self.handoffs_out,
                "handoffs_in": self.handoffs_in,
                "maintenance": self.maintenance,
                "busy_s": self.busy_s,
                "blocked_s": self.blocked_s,
                "peak_rss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
            },
        }


def _worker_entry(conn, payload_json: str) -> None:
    """Process entry point; every failure becomes a loud error frame."""
    try:
        _ShardWorker(conn, json.loads(payload_json)).run()
    except BaseException:  # noqa: BLE001 - ship any failure to the parent
        try:
            _send(conn, {"type": "error",
                         "traceback": traceback.format_exc()})
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class ShardRound:
    """A per-round progress snapshot (live dashboard food)."""

    round: int
    horizon: float
    final_horizon: float
    shards: List[Dict[str, object]] = field(default_factory=list)


class _ShimStats:
    """Duck-typed ``SwitchStats`` over one shard's reported summary."""

    def __init__(self, summary: Dict[str, object]) -> None:
        self._summary = {key: summary[key] for key in _SUMMARY_KEYS}
        for key in _SUMMARY_KEYS:
            setattr(self, key, summary[key])

    @property
    def total_lost_packets(self) -> int:
        return (self.dropped_packets + self.expelled_packets
                + self.evicted_packets)

    def summary(self) -> Dict[str, object]:
        return dict(self._summary)


class _ShimSwitch:
    def __init__(self, name: str, summary: Dict[str, object]) -> None:
        self.name = name
        self.stats = _ShimStats(summary)


class _ShimSim:
    def __init__(self, events_executed: int, now: float) -> None:
        self.events_executed = events_executed
        self.now = now


class _MergedTopology:
    """The slice of a topology the result/report layers actually touch."""

    def __init__(self, switches: List[_ShimSwitch], sim: _ShimSim) -> None:
        self._switches = switches
        self.sim = sim

    def all_switches(self) -> List[_ShimSwitch]:
        return list(self._switches)


class _MergedTelemetry:
    """Carrier for the merged telemetry document (``to_dict`` only)."""

    def __init__(self, document: Dict[str, object]) -> None:
        self._document = document
        self.ticks = document["ticks"]

    def to_dict(self) -> Dict[str, object]:
        return self._document


class ShardCrash(RuntimeError):
    """A shard process died or reported an error mid-run."""


def _merge_telemetry(reports: List[Dict[str, object]],
                     assignment: Dict[str, int]) -> Dict[str, object]:
    docs = [report["telemetry"] for report in reports]
    base = docs[0]
    for i, doc in enumerate(docs[1:], start=1):
        for key in ("interval", "capacity", "ticks", "dropped_samples",
                    "time"):
            if doc[key] != base[key]:
                raise ShardCrash(
                    f"telemetry grid diverged between shard 0 and shard "
                    f"{i} on {key!r}: sharded execution requires identical "
                    "sampling ticks in every process")
    maintenance = [doc["series"]["shard.maintenance"] for doc in docs]
    merged: Dict[str, List[float]] = {}
    for name in base["series"]:
        if name.startswith(_SHARD_SERIES_PREFIX):
            continue
        if name == "sim.events_executed":
            merged[name] = [
                sum(doc["series"][name][k] for doc in docs)
                - sum(series[k] for series in maintenance)
                for k in range(len(base["time"]))
            ]
        elif name.startswith("switch."):
            owner = assignment[name.split(".", 2)[1]]
            merged[name] = docs[owner]["series"][name]
        else:
            # Host and link aggregates are linear sums; non-owned replicas
            # contribute exact zeros.
            merged[name] = [
                sum(doc["series"][name][k] for doc in docs)
                for k in range(len(base["time"]))
            ]
    return {
        "interval": base["interval"],
        "capacity": base["capacity"],
        "ticks": base["ticks"],
        "dropped_samples": base["dropped_samples"],
        "time": base["time"],
        "series": dict(sorted(merged.items())),
    }


def _generate_flows(spec: ScenarioSpec, topology) -> List[List[object]]:
    """Generate and order every workload flow exactly like the runner.

    Returns injection-ordered entries ``[flow_id, src, dst, size_bytes,
    start_time, priority, query_id, protocol]`` with each flow's transport
    protocol resolved (workload override or scenario default).
    """
    rng = SeededRNG(spec.seed)
    hosts = list(getattr(topology, "hosts", []) or [])
    link_rate_bps = getattr(topology, "link_rate_bps", 0.0)
    generated = []
    for workload in spec.workloads:
        ctx = WorkloadContext(
            rng=rng.child(workload.rng_label or workload.kind),
            duration=spec.duration,
            hosts=hosts,
            link_rate_bps=link_rate_bps,
            topology=topology,
        )
        generated.append(
            (workload, make_workload(workload.kind, workload.params, ctx)))
    seen_ids: Dict[int, str] = {}
    for workload, flows in generated:
        if any(not isinstance(f, FlowSpec) for f in flows):
            raise ValueError(
                f"workload {workload.kind!r} produced raw packet arrivals; "
                "sharded execution needs a network-level topology")
        for flow in flows:
            if flow.flow_id in seen_ids:
                raise ValueError(
                    f"duplicate flow_id {flow.flow_id}: workloads "
                    f"{seen_ids[flow.flow_id]!r} and {workload.kind!r} "
                    "both produced it")
            seen_ids[flow.flow_id] = workload.kind
    default_protocol = spec.transport.protocol
    entries: List[List[object]] = []
    for query_pass in (True, False):
        for workload, flows in generated:
            protocol = workload.transport or default_protocol
            for flow in flows:
                if (flow.query_id is not None) == query_pass:
                    entries.append([
                        flow.flow_id, flow.src, flow.dst, flow.size_bytes,
                        flow.start_time, flow.priority, flow.query_id,
                        protocol,
                    ])
    return entries


class _ShardPool:
    """Spawned worker processes plus crash-aware receive."""

    def __init__(self, spec: ScenarioSpec, partition: Partition,
                 flows: List[List[object]]) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        base_payload = {
            "spec": spec.to_dict(),
            "num_shards": partition.num_shards,
            "assignment": partition.assignment,
            "cut_links": [list(pair) for pair in partition.cut_links],
            "flows": flows,
        }
        self.conns = []
        self.procs = []
        try:
            for shard in range(partition.num_shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                payload = dict(base_payload, shard=shard)
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(child_conn, json.dumps(payload)),
                    name=f"repro-shard-{shard}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
        except BaseException:
            self.terminate()
            raise

    def send(self, shard: int, message: Dict[str, object]) -> None:
        _send(self.conns[shard], message)

    def recv(self, shard: int) -> Dict[str, object]:
        conn = self.conns[shard]
        proc = self.procs[shard]
        while not conn.poll(0.2):
            if not proc.is_alive():
                raise ShardCrash(
                    f"shard {shard} process died (exit code "
                    f"{proc.exitcode}) without reporting an error")
        try:
            message = _recv(conn)
        except EOFError:
            raise ShardCrash(
                f"shard {shard} closed its pipe mid-round (exit code "
                f"{proc.exitcode})") from None
        if message.get("type") == "error":
            raise ShardCrash(
                f"shard {shard} failed:\n{message['traceback']}")
        return message

    def terminate(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5)


def run_sharded(spec: ScenarioSpec, on_sample: Optional[Callable] = None):
    """Execute ``spec`` across ``spec.engine.shards`` worker processes.

    Returns a :class:`~repro.scenario.runner.ScenarioResult` whose
    ``to_dict()`` document is byte-identical to the single-process run of
    the same spec.  ``on_sample`` objects flagged ``shard_aware`` (the
    shard dashboard) receive a :class:`ShardRound` after every exchange;
    plain telemetry hooks cannot observe worker-process buses and are
    ignored.  Per-shard diagnostics land on the result's ``shard_stats``
    attribute -- never in the canonical document.
    """
    from repro.scenario.runner import ScenarioResult, ScenarioRunner

    runner = ScenarioRunner()
    runner.validate(spec)
    manager_factory = lambda: make_buffer_manager(  # noqa: E731
        spec.scheme.name, **spec.scheme.kwargs)
    topology = make_topology(spec.topology.kind, manager_factory,
                             **spec.resolved_topology_params())
    partition = partition_topology(topology, spec.engine.shards,
                                   spec.engine.partition)
    flows = _generate_flows(spec, topology)
    flow_stats = topology.network.flow_stats
    for entry in flows:
        flow_id, src, dst, size_bytes, start_time, priority, query_id, _ = (
            entry)
        flow_stats.register_flow(FlowRecord(
            flow_id=flow_id, src=src, dst=dst, size_bytes=size_bytes,
            start_time=start_time, query_id=query_id, priority=priority))

    on_round = (on_sample if on_sample is not None
                and getattr(on_sample, "shard_aware", False) else None)
    horizon = spec.duration * spec.run_slack
    lookahead = partition.lookahead
    num_shards = partition.num_shards

    # The first global minimum is known without an exchange: at setup the
    # only scheduled events are the flow starts and (with telemetry) the
    # first sampler tick at t=0.
    t_next: Optional[float] = None
    if spec.telemetry.enabled:
        t_next = 0.0
    for entry in flows:
        start = entry[4]
        if t_next is None or start < t_next:
            t_next = start

    pool = _ShardPool(spec, partition, flows)
    reports: List[Dict[str, object]] = []
    rounds = 0
    try:
        route: List[List[str]] = [[] for _ in range(num_shards)]
        while True:
            if t_next is None:
                round_horizon, final = horizon, True
            else:
                # Exclusive upper bound: the kernel runs events at exactly
                # `until`, and an event at t_next + lookahead may depend on
                # a handoff from this very round -- stop one ulp short.
                # The max() guard keeps progress when the lookahead is
                # smaller than one ulp of the clock.
                candidate = max(
                    math.nextafter(t_next + lookahead, -math.inf), t_next)
                if candidate >= horizon:
                    round_horizon, final = horizon, True
                else:
                    round_horizon, final = candidate, False
            for shard in range(num_shards):
                pool.send(shard, {
                    "cmd": "run",
                    "horizon": round_horizon,
                    "final": final,
                    "handoffs": route[shard],
                })
            route = [[] for _ in range(num_shards)]
            replies = [pool.recv(shard) for shard in range(num_shards)]
            rounds += 1
            if final:
                reports = replies
                break
            t_next = None
            for reply in replies:
                for dst_str, blob in reply["handoffs"].items():
                    route[int(dst_str)].append(blob)
                for value in (reply["peek"], reply["min_arr"]):
                    if value is not None and (t_next is None
                                              or value < t_next):
                        t_next = value
            if on_round is not None:
                on_round(ShardRound(
                    round=rounds, horizon=round_horizon,
                    final_horizon=horizon,
                    shards=[{
                        "shard": i,
                        "now": reply["now"],
                        "events": reply["events"],
                        "handoffs": reply["handoffs_out"],
                    } for i, reply in enumerate(replies)]))
    finally:
        pool.terminate()

    # -- merge ---------------------------------------------------------
    for shard, report in enumerate(reports):
        if report["final_time"] != horizon:
            raise ShardCrash(
                f"shard {shard} ended at {report['final_time']!r}, "
                f"expected the common horizon {horizon!r}")
    events = sum(report["events"] - report["ticks"] - report["maintenance"]
                 for report in reports)
    finishes: List[Tuple[int, float]] = []
    for report in reports:
        finishes.extend((fid, t) for fid, t in report["finishes"])
    # Completion order is irrelevant to FlowStats (query finish times are
    # max-of-members), but apply in flow-id order anyway: deterministic
    # merged state regardless of shard count.
    for flow_id, finish_time in sorted(finishes):
        flow_stats.flow_finished(flow_id, finish_time)

    shim_switches = []
    for node in topology.all_switches():
        owner = partition.assignment[node.name]
        shim_switches.append(
            _ShimSwitch(node.name, reports[owner]["switches"][node.name]))
    ticks = reports[0]["ticks"]
    merged_topology = _MergedTopology(
        shim_switches, _ShimSim(events + ticks, horizon))
    telemetry = None
    if spec.telemetry.enabled:
        telemetry = _MergedTelemetry(
            _merge_telemetry(reports, partition.assignment))

    result = ScenarioResult(
        spec=spec,
        topology=merged_topology,
        flow_stats=flow_stats,
        level="network",
        events_executed=events,
        final_time=horizon,
        telemetry=telemetry,
        timeline=None,
    )
    #: Diagnostics channel: per-shard rows (events, handoffs, rounds,
    #: blocked/busy wall time, RSS) plus the partition -- deliberately an
    #: attribute, never part of the canonical document.
    result.shard_stats = {
        "partition": partition.to_dict(),
        "rounds": rounds,
        "shards": [report["shard"] for report in reports],
    }
    return result
