"""Switch-level statistics: drops, occupancy, utilization and traces."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple


@dataclass(slots=True)
class QueueTraceSample:
    """One sample of a queue-length trace (used for Figures 3 and 11)."""

    time: float
    queue_id: int
    length_bytes: int
    threshold_bytes: float


class RateWindow:
    """A sliding-window byte-rate estimator used for bandwidth utilization."""

    def __init__(self, window: float = 50e-6) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._samples: Deque[Tuple[float, int]] = deque()
        self._total = 0

    def record(self, now: float, nbytes: int) -> None:
        samples = self._samples
        samples.append((now, nbytes))
        total = self._total + nbytes
        cutoff = now - self.window
        while samples[0][0] < cutoff:
            total -= samples.popleft()[1]
        self._total = total

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            self._total -= samples.popleft()[1]

    def rate_bytes_per_sec(self, now: float) -> float:
        self._evict(now)
        return self._total / self.window


class SwitchStats:
    """Aggregated counters and samples collected by the traffic manager.

    The paper's Figure 7 plots the CDF of buffer utilization and memory
    bandwidth utilization *at packet-drop time*; those samples are recorded by
    :meth:`sample_on_drop`.
    """

    def __init__(self, trace_queues: bool = False) -> None:
        self.trace_queues = trace_queues

        # Packet/byte counters.
        self.arrived_packets = 0
        self.arrived_bytes = 0
        self.admitted_packets = 0
        self.admitted_bytes = 0
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.expelled_packets = 0
        self.expelled_bytes = 0
        self.evicted_packets = 0  # Pushout-style evictions on admission.
        self.evicted_bytes = 0
        self.ecn_marked_packets = 0

        #: Drop counts keyed by reason string.
        self.drop_reasons: Dict[str, int] = defaultdict(int)
        #: Per-queue admission-drop / expulsion counters.
        self.per_queue_drops: Dict[int, int] = defaultdict(int)
        self.per_queue_expulsions: Dict[int, int] = defaultdict(int)
        #: Time and queue length at each queue's *first* admission drop
        #: (used to detect the "drop before fair share" anomaly).
        self.first_drop_time: Dict[int, float] = {}
        self.first_drop_queue_length: Dict[int, int] = {}

        #: Buffer occupancy (fraction of B) sampled whenever a packet drops.
        self.buffer_utilization_on_drop: List[float] = []
        #: Memory-bandwidth utilization sampled whenever a packet drops.
        self.bandwidth_utilization_on_drop: List[float] = []
        #: Peak buffer occupancy in bytes.
        self.max_occupancy_bytes = 0

        #: Optional queue-length/threshold trace.
        self.queue_trace: List[QueueTraceSample] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_drop(self, queue_id: int, nbytes: int, reason: str,
                    time: float = 0.0, queue_length: int = 0) -> None:
        self.dropped_packets += 1
        self.dropped_bytes += nbytes
        self.drop_reasons[reason] += 1
        self.per_queue_drops[queue_id] += 1
        if queue_id not in self.first_drop_time:
            self.first_drop_time[queue_id] = time
            self.first_drop_queue_length[queue_id] = queue_length

    def record_expulsion(self, queue_id: int, nbytes: int) -> None:
        self.expelled_packets += 1
        self.expelled_bytes += nbytes
        self.drop_reasons["expelled"] += 1
        self.per_queue_expulsions[queue_id] += 1

    def record_eviction(self, queue_id: int, nbytes: int) -> None:
        self.evicted_packets += 1
        self.evicted_bytes += nbytes
        self.drop_reasons["pushout_evicted"] += 1
        self.per_queue_expulsions[queue_id] += 1

    def sample_on_drop(self, buffer_utilization: float, bandwidth_utilization: float) -> None:
        self.buffer_utilization_on_drop.append(buffer_utilization)
        self.bandwidth_utilization_on_drop.append(bandwidth_utilization)

    def trace_queue(self, time: float, queue_id: int, length_bytes: int,
                    threshold_bytes: float) -> None:
        if self.trace_queues:
            self.queue_trace.append(
                QueueTraceSample(time, queue_id, length_bytes, threshold_bytes)
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_lost_packets(self) -> int:
        """All packets lost inside the switch, however they were lost."""
        return self.dropped_packets + self.expelled_packets + self.evicted_packets

    def loss_rate(self) -> float:
        """Fraction of arrived packets that never left through an egress port."""
        if self.arrived_packets == 0:
            return 0.0
        return self.total_lost_packets / self.arrived_packets

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of headline counters (handy for experiment CSVs)."""
        return {
            "arrived_packets": self.arrived_packets,
            "admitted_packets": self.admitted_packets,
            "transmitted_packets": self.transmitted_packets,
            "dropped_packets": self.dropped_packets,
            "expelled_packets": self.expelled_packets,
            "evicted_packets": self.evicted_packets,
            "ecn_marked_packets": self.ecn_marked_packets,
            "loss_rate": self.loss_rate(),
            "max_occupancy_bytes": self.max_occupancy_bytes,
        }
