"""The shared-memory switch traffic manager.

This is the substrate every experiment runs on: a centralized, globally shared
on-chip packet buffer, per-port class queues, an admission module driven by a
:class:`repro.core.base.BufferManager`, per-port output schedulers, and -- for
preemptive schemes -- an expulsion engine fed by redundant memory bandwidth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.base import REJECT_BUFFER_FULL, BufferManager, EvictionRequest
from repro.core.expulsion import ExpulsionEngine, TokenBucket
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MB
from repro.switchsim.cells import CellPool, PacketDescriptor
from repro.switchsim.packet import Packet
from repro.switchsim.port import EgressPort
from repro.switchsim.queue import SwitchQueue
from repro.switchsim.scheduler import make_scheduler
from repro.switchsim.stats import RateWindow, SwitchStats

#: Callback type invoked when a packet finishes transmission on a port.
TransmitCallback = Callable[[Packet, int], None]


@dataclass
class SwitchConfig:
    """Static configuration of a shared-memory switch.

    Attributes:
        num_ports: number of egress ports.
        queues_per_port: class queues per port (the paper uses up to 8).
        port_rate_bps: line rate of every port, in bits per second.
        buffer_bytes: total shared buffer capacity.
        cell_bytes: cell size of the packet buffer (the paper assumes 200 B).
        scheduler: per-port scheduler: ``fifo``, ``drr`` or ``strict``.
        drr_quantum_bytes: DRR quantum.
        ecn_threshold_bytes: default per-queue ECN marking threshold
            (``None`` disables marking unless a queue overrides it).
        memory_bandwidth_bps: total packet-buffer memory bandwidth.  Defaults
            to twice the aggregate port rate (one write path plus one read
            path at full bisection bandwidth).
        expulsion_bandwidth_fraction_default: token generation rate for the
            expulsion engine as a fraction of the aggregate forwarding rate,
            used when the buffer manager does not specify one.
        expulsion_token_capacity_bytes: burst capacity of the expulsion
            token bucket.
        trace_queues: record a queue-length/threshold sample on every
            enqueue, admission drop, transmission, eviction and head drop
            (Figures 3 and 11 plot them).  Each sample is four doubles
            appended to ``SwitchStats.queue_trace_flat`` plus one threshold
            query; off, the switch pays one ``is not None`` test per event.
        name: label used in logs and experiment output.
    """

    num_ports: int = 8
    queues_per_port: int = 1
    port_rate_bps: float = 10 * GBPS
    buffer_bytes: int = 2 * MB
    cell_bytes: int = 200
    scheduler: str = "fifo"
    drr_quantum_bytes: int = 1500
    ecn_threshold_bytes: Optional[int] = None
    memory_bandwidth_bps: Optional[float] = None
    expulsion_bandwidth_fraction_default: float = 1.0
    expulsion_token_capacity_bytes: int = 64 * KB
    trace_queues: bool = False
    name: str = "switch"

    def __post_init__(self) -> None:
        if self.num_ports <= 0:
            raise ValueError("num_ports must be positive")
        if self.queues_per_port <= 0:
            raise ValueError("queues_per_port must be positive")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.port_rate_bps <= 0:
            raise ValueError("port_rate_bps must be positive")
        if self.expulsion_token_capacity_bytes < self.cell_bytes:
            # Tokens are cells: a bucket that cannot hold one could never
            # grant a head drop, only retry.
            raise ValueError(
                "expulsion_token_capacity_bytes must cover at least one cell "
                f"({self.cell_bytes} B), got {self.expulsion_token_capacity_bytes}")

    @property
    def aggregate_rate_bps(self) -> float:
        """Total forwarding capacity (sum of all port rates)."""
        return self.num_ports * self.port_rate_bps

    @property
    def total_memory_bandwidth_bps(self) -> float:
        if self.memory_bandwidth_bps is not None:
            return self.memory_bandwidth_bps
        return 2.0 * self.aggregate_rate_bps


class SharedMemorySwitch:
    """A shared-memory switch with pluggable buffer management.

    Args:
        config: static switch configuration.
        manager: the buffer-management scheme (from :mod:`repro.core`).
        simulator: the discrete-event simulator providing the clock.
        on_transmit: callback invoked as ``on_transmit(packet, port_id)`` when
            a packet completes serialization on an egress port.  The network
            simulator uses it to hand the packet to the attached link; when
            omitted, transmitted packets simply leave the model.
    """

    def __init__(
        self,
        config: SwitchConfig,
        manager: BufferManager,
        simulator: Simulator,
        on_transmit: Optional[TransmitCallback] = None,
    ) -> None:
        self.config = config
        self.manager = manager
        self.sim = simulator
        self.on_transmit = on_transmit
        self.name = config.name

        self.cell_pool = CellPool(config.buffer_bytes, config.cell_bytes)
        self.stats = SwitchStats()

        # Incrementally maintained active-queue counts (total and keyed by
        # priority), updated through the queues' activity listener instead of
        # rescanning every queue on each ABM admission decision.
        self._active_total = 0
        self._active_by_priority: Dict[int, int] = defaultdict(int)

        # Build ports and queues. Queue ids are globally unique and dense so
        # they can index bitmaps directly.
        self.ports: List[EgressPort] = []
        self._queues: List[SwitchQueue] = []
        for port_id in range(config.num_ports):
            scheduler = make_scheduler(config.scheduler, config.drr_quantum_bytes)
            port = EgressPort(port_id, config.port_rate_bps, scheduler)
            # One prebuilt bound callback per port: the inner transmit loop
            # schedules it directly instead of allocating a closure per packet.
            port.finish_callback = partial(self._finish_transmit, port)
            for class_index in range(config.queues_per_port):
                queue = SwitchQueue(
                    queue_id=len(self._queues),
                    port_id=port_id,
                    class_index=class_index,
                    priority=class_index,
                    ecn_threshold_bytes=config.ecn_threshold_bytes,
                )
                queue.activity_listener = self
                port.add_queue(queue)
                self._queues.append(queue)
            self.ports.append(port)

        # Memory bandwidth accounting: a sliding window over cell-data reads
        # and writes, compared against the total memory bandwidth.
        self._memory_rate = RateWindow(window=50e-6)
        self._memory_bandwidth_bps = config.total_memory_bandwidth_bps

        # Expulsion engine for Occamy-style schemes.
        self.expulsion_engine: Optional[ExpulsionEngine] = None
        self._expulsion_retry_event = None
        manager.attach(self)
        if manager.uses_expulsion_engine:
            self._build_expulsion_engine()
        # The manager's O(1) idle proof, asked at the two per-packet call
        # sites so an idle switch never enters the expulsion driver.
        self._none_over_allocated = manager.proves_none_over_allocated
        # Queue tracing: a sample is one extend of the flat trace with
        # (time, queue id, length, threshold); None when tracing is off.
        self._threshold = manager.threshold
        self._record_trace = (self.stats.queue_trace_flat.extend
                              if config.trace_queues else None)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_expulsion_engine(self) -> None:
        fraction = getattr(
            self.manager,
            "expulsion_bandwidth_fraction",
            self.config.expulsion_bandwidth_fraction_default,
        )
        victim_policy = getattr(self.manager, "victim_policy", "round_robin")
        max_drops = getattr(self.manager, "max_drops_per_run", 64)
        # Expulsion tokens are generated at the memory *read-path* rate (half
        # of the total read+write memory bandwidth); normal forwarding
        # consumes from the same budget, so only redundant read bandwidth is
        # left for head drops.  By default the read path equals the aggregate
        # port rate; experiments model larger chips by raising
        # ``memory_bandwidth_bps``.
        read_path_bytes_per_sec = self.config.total_memory_bandwidth_bps / 2.0 / 8.0
        rate_cells = fraction * read_path_bytes_per_sec / self.config.cell_bytes
        capacity_cells = (self.config.expulsion_token_capacity_bytes
                          / self.config.cell_bytes)
        bucket = TokenBucket(rate_cells_per_sec=rate_cells, capacity_cells=capacity_cells)
        self.expulsion_engine = ExpulsionEngine(
            switch=self,
            manager=self.manager,
            token_bucket=bucket,
            victim_policy=victim_policy,
            max_drops_per_run=max_drops,
        )

    # ------------------------------------------------------------------
    # State exposed to buffer managers (SwitchView)
    # ------------------------------------------------------------------
    @property
    def buffer_size_bytes(self) -> int:
        return self.config.buffer_bytes

    @property
    def occupancy_bytes(self) -> int:
        """Current buffer occupancy at cell granularity."""
        return self.cell_pool.used_bytes

    @property
    def free_buffer_bytes(self) -> int:
        return self.cell_pool.free_bytes

    @property
    def total_queue_count(self) -> int:
        return len(self._queues)

    @property
    def port_count(self) -> int:
        return len(self.ports)

    def queue_views(self) -> Sequence[SwitchQueue]:
        """All queues of the switch (they satisfy the QueueView protocol)."""
        return self._queues

    def queue(self, queue_id: int) -> SwitchQueue:
        return self._queues[queue_id]

    def queue_for(self, port_id: int, class_index: int = 0) -> SwitchQueue:
        """The queue of traffic class ``class_index`` on ``port_id``."""
        return self._queues[port_id * self.config.queues_per_port + class_index]

    def port(self, port_id: int) -> EgressPort:
        return self.ports[port_id]

    def port_rate_bytes_per_sec(self, port_id: int) -> float:
        return self.ports[port_id].rate_bytes_per_sec

    def set_port_rate(self, port_id: int, rate_bps: float) -> None:
        """Retune one egress port's line rate (per-link rates, degradation).

        The config's ``port_rate_bps`` stays the *nominal* rate (buffer and
        memory-bandwidth sizing derive from it); this only changes the wire
        speed packets serialize at, and notifies the buffer manager so
        schemes caching port rates (ABM) stay consistent.
        """
        if not rate_bps > 0:
            raise ValueError(f"port rate must be positive, got {rate_bps!r}")
        self.ports[port_id].rate_bps = rate_bps
        self.manager.on_port_rate_changed(port_id, rate_bps)

    def active_queue_count(self, priority: Optional[int] = None) -> int:
        """Number of non-empty queues, optionally restricted to a priority.

        O(1): the counts are maintained incrementally on every enqueue /
        dequeue / drop through the queues' activity listener.
        """
        if priority is None:
            return self._active_total
        return self._active_by_priority[priority]

    # -- ActivityListener protocol (called by SwitchQueue) --------------
    def queue_became_active(self, queue: SwitchQueue) -> None:
        self._active_total += 1
        self._active_by_priority[queue.priority] += 1

    def queue_became_inactive(self, queue: SwitchQueue) -> None:
        self._active_total -= 1
        self._active_by_priority[queue.priority] -= 1

    def queue_alpha_changed(self, queue: SwitchQueue) -> None:
        self.manager.on_queue_alpha_changed()

    def buffer_utilization(self) -> float:
        return self.cell_pool.used_bytes / self.config.buffer_bytes

    # ------------------------------------------------------------------
    # Ingress: admission and enqueue
    # ------------------------------------------------------------------
    def receive(
        self,
        packet: Packet,
        out_port_id: int,
        class_index: Optional[int] = None,
    ) -> bool:
        """Handle a packet arriving from ingress, destined to ``out_port_id``.

        Returns True if the packet was admitted into the buffer.
        """
        now = self.sim.now
        size = packet.size_bytes
        if not 0 <= out_port_id < len(self.ports):
            raise ValueError(f"invalid egress port {out_port_id}")
        # queue_for(), inlined.  Unless the caller names the class, the
        # packet's priority is its class index, clamped to the port's queues.
        queues_per_port = self.config.queues_per_port
        if class_index is None:
            class_index = packet.priority
            if class_index >= queues_per_port:
                class_index = queues_per_port - 1
        if not 0 <= class_index < queues_per_port:
            # A negative index would land on the previous port's queue.
            raise ValueError(
                f"invalid class index {class_index} "
                f"(port {out_port_id} has {queues_per_port} queue(s))")
        queue = self._queues[out_port_id * queues_per_port + class_index]
        stats = self.stats
        stats.arrived_packets += 1
        stats.arrived_bytes += size

        decision = self.manager.admit(queue, size, now)
        if decision.accept and decision.evictions:
            self._execute_evictions(decision.evictions, now)
            if not self.cell_pool.can_fit(size):
                # Defensive re-check: evictions may have freed less than planned.
                decision = REJECT_BUFFER_FULL

        engine = self.expulsion_engine
        if not decision.accept:
            self._drop_arrival(queue, packet, decision.reason or "dropped", now)
            if engine is not None and not self._none_over_allocated():
                self._maybe_expel(now)
            return False

        descriptor = self.cell_pool.allocate(packet)
        if descriptor is None:  # pragma: no cover - admit checked the fit
            self._drop_arrival(queue, packet, "buffer_full", now)
            return False

        threshold = queue.ecn_threshold_bytes
        if (threshold is not None and packet.ecn_capable
                and queue.length_bytes + size > threshold
                and not packet.ecn_marked):
            packet.ecn_marked = True
            stats.ecn_marked_packets += 1
        queue.push(descriptor)
        stats.admitted_packets += 1
        stats.admitted_bytes += size
        occupancy = self.cell_pool.used_bytes
        if occupancy > stats.max_occupancy_bytes:
            stats.max_occupancy_bytes = occupancy
        self._memory_rate.record(now, size)
        record_trace = self._record_trace
        if record_trace is not None:
            record_trace((now, queue.queue_id, queue.length_bytes,
                          self._threshold(queue, now)))

        port = self.ports[out_port_id]
        if not port.busy:
            self._try_transmit(port)
        if engine is not None and not self._none_over_allocated():
            self._maybe_expel(now)
        return True

    def _drop_arrival(self, queue: SwitchQueue, packet: Packet, reason: str,
                      now: float) -> None:
        # Every counter and sample of an admission drop, written in place;
        # the two utilization samples feed Figure 7.
        size = packet.size_bytes
        queue_id = queue.queue_id
        stats = self.stats
        stats.dropped_packets += 1
        stats.dropped_bytes += size
        stats.drop_reasons[reason] += 1
        stats.per_queue_drops[queue_id] += 1
        if queue_id not in stats.first_drop_time:
            stats.first_drop_time[queue_id] = now
            stats.first_drop_queue_length[queue_id] = queue.length_bytes
        queue.dropped_packets += 1
        queue.dropped_bytes += size
        stats.buffer_utilization_on_drop.append(
            self.cell_pool.used_bytes / self.config.buffer_bytes)
        stats.bandwidth_utilization_on_drop.append(
            min(1.0, self._memory_rate.rate_bytes_per_sec(now) * 8.0
                / self._memory_bandwidth_bps))
        record_trace = self._record_trace
        if record_trace is not None:
            record_trace((now, queue_id, queue.length_bytes,
                          self._threshold(queue, now)))

    def _execute_evictions(self, evictions: List[EvictionRequest], now: float) -> None:
        """Carry out Pushout-style evictions coupled to an admission."""
        for request in evictions:
            queue = self._queues[request.queue_id]
            freed = 0
            while freed < request.max_bytes and queue.length_packets > 0:
                descriptor = queue.pop_head() if request.from_head else queue.pop_tail()
                if descriptor is None:
                    break
                size = descriptor.size_bytes
                self.cell_pool.release(descriptor, read_data=False)
                freed += size
                queue.record_drop(size, expelled=True)
                self.stats.record_eviction(queue.queue_id, size)
            if self._record_trace is not None:
                self._record_trace((now, queue.queue_id, queue.length_bytes,
                                    self._threshold(queue, now)))

    # ------------------------------------------------------------------
    # Egress: scheduling and transmission
    # ------------------------------------------------------------------
    def _try_transmit(self, port: EgressPort) -> None:
        """Start serializing the port's next packet; the port must be idle."""
        queue = port.single_queue
        if queue is not None:
            # Single-queue port: any scheduler serves the one queue, so the
            # selection step collapses into the dequeue itself.
            descriptor = queue.pop_head()
            if descriptor is None:
                return
        else:
            queue = port.select_queue()
            if queue is None:
                return
            descriptor = queue.pop_head()
            if descriptor is None:  # pragma: no cover - scheduler picked active queue
                return
        port.busy = True
        size = descriptor.packet.size_bytes
        delay = port.delay_by_size.get(size)
        if delay is None:
            delay = port.delay_by_size[size] = port.serialization_delay(size)
        # The in-flight state lives on the port (one transmission at a time);
        # the scheduled callback is the port's prebuilt bound method, so the
        # inner transmit loop allocates no closures.
        port.tx_queue = queue
        port.tx_descriptor = descriptor
        port.tx_delay = delay
        self.sim.schedule_fast(delay, port.finish_callback)

    def _finish_transmit(self, port: EgressPort) -> None:
        queue: SwitchQueue = port.tx_queue
        descriptor: PacketDescriptor = port.tx_descriptor
        delay = port.tx_delay
        port.tx_queue = None
        port.tx_descriptor = None
        now = self.sim.now
        packet = descriptor.packet
        size = packet.size_bytes
        cells = descriptor.num_cells  # release() zeroes it
        self.cell_pool.release(descriptor, read_data=True)
        queue.record_dequeue(size, now)
        stats = self.stats
        stats.transmitted_packets += 1
        stats.transmitted_bytes += size
        self._memory_rate.record(now, size)
        engine = self.expulsion_engine
        if engine is not None:
            engine.token_bucket.consume_forwarding(cells, now)
        port.transmitted_packets += 1
        port.transmitted_bytes += size
        port.busy_time += delay
        port.last_tx_end = now
        port.busy = False
        record_trace = self._record_trace
        if record_trace is not None:
            record_trace((now, queue.queue_id, queue.length_bytes,
                          self._threshold(queue, now)))
        if self.on_transmit is not None:
            self.on_transmit(packet, port.port_id)
        if not port.busy:  # on_transmit may have re-entered receive()
            self._try_transmit(port)
        if engine is not None and not self._none_over_allocated():
            self._maybe_expel(now)

    # ------------------------------------------------------------------
    # Head drop (expulsion executor)
    # ------------------------------------------------------------------
    def head_drop(self, queue_id: int, now: Optional[float] = None) -> Optional[int]:
        """Expel the head packet of ``queue_id``; returns its size in bytes.

        Head drops only touch PD memory and the cell-pointer free list -- the
        cell data memory is not read (``read_data=False``), which is what lets
        Occamy expel packets using pointer bandwidth only.
        """
        if now is None:
            now = self.sim.now
        queue = self._queues[queue_id]
        descriptor = queue.pop_head()
        if descriptor is None:
            return None
        size = descriptor.size_bytes
        self.cell_pool.release(descriptor, read_data=False)
        queue.record_drop(size, expelled=True)
        self.stats.record_expulsion(queue.queue_id, size)
        if self._record_trace is not None:
            self._record_trace((now, queue_id, queue.length_bytes,
                                self._threshold(queue, now)))
        return size

    # ------------------------------------------------------------------
    # Expulsion engine driver
    # ------------------------------------------------------------------
    def _maybe_expel(self, now: float) -> None:
        retry_after = self.expulsion_engine.run(now)
        if retry_after > 0 and self._expulsion_retry_event is None:
            self._expulsion_retry_event = self.sim.schedule(
                retry_after, self._expulsion_retry
            )

    def _expulsion_retry(self) -> None:
        self._expulsion_retry_event = None
        self._maybe_expel(self.sim.now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def threshold_of(self, queue_id: int) -> float:
        """Current admission threshold of a queue (convenience for tests)."""
        return self.manager.threshold(self._queues[queue_id], self.sim.now)

    def total_backlog_bytes(self) -> int:
        return sum(queue.length_bytes for queue in self._queues)
