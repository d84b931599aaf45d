"""Egress schedulers: FIFO, strict priority, weighted round robin and DRR.

A scheduler selects which of a port's queues transmits next.  All schedulers
implement :meth:`Scheduler.select`, which returns the chosen queue (without
dequeuing) or ``None`` when every queue is empty.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.switchsim.queue import SwitchQueue


class Scheduler:
    """Base class for per-port schedulers."""

    name = "base"

    def select(self, queues: Sequence[SwitchQueue]) -> Optional[SwitchQueue]:
        """Pick the next queue to serve, or ``None`` if all are empty."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Single-queue ports: always serve the first non-empty queue."""

    name = "fifo"

    def select(self, queues: Sequence[SwitchQueue]) -> Optional[SwitchQueue]:
        for queue in queues:
            if queue.is_active:
                return queue
        return None


class StrictPriorityScheduler(Scheduler):
    """Always serve the non-empty queue with the numerically lowest priority."""

    name = "strict"

    def select(self, queues: Sequence[SwitchQueue]) -> Optional[SwitchQueue]:
        best: Optional[SwitchQueue] = None
        for queue in queues:
            if not queue.is_active:
                continue
            if best is None or queue.priority < best.priority:
                best = queue
        return best


class WeightedRoundRobinScheduler(Scheduler):
    """Packet-based weighted round robin.

    Each round, queue *i* may send up to ``weight_i`` packets.  Simple and
    cheap; byte-accurate fairness is provided by the DRR scheduler below.
    """

    name = "wrr"

    def __init__(self) -> None:
        self._credits: dict[int, float] = {}
        self._order: List[int] = []
        self._pointer = 0

    def select(self, queues: Sequence[SwitchQueue]) -> Optional[SwitchQueue]:
        active = [q for q in queues if q.is_active]
        if not active:
            return None
        # Refresh the service order lazily (queues rarely change).
        ids = [q.queue_id for q in queues]
        if ids != self._order:
            self._order = ids
            self._pointer = 0
            self._credits = {q.queue_id: q.weight for q in queues}
        n = len(queues)
        for _ in range(2 * n):
            queue = queues[self._pointer % n]
            self._pointer += 1
            if not queue.is_active:
                continue
            if self._credits.get(queue.queue_id, 0) >= 1:
                self._credits[queue.queue_id] -= 1
                return queue
            # Out of credits: replenish when every active queue is exhausted.
            if all(
                self._credits.get(q.queue_id, 0) < 1 for q in active
            ):
                for q in queues:
                    self._credits[q.queue_id] = q.weight
        return active[0]


class DeficitRoundRobinScheduler(Scheduler):
    """Deficit Round Robin (byte-accurate weighted fairness).

    Each queue has a deficit counter; when its turn comes the counter is
    incremented by ``quantum * weight`` and the queue may transmit packets as
    long as the counter covers them.  This implementation selects one packet
    per call (the port transmits one packet at a time), carrying deficits
    across calls.
    """

    name = "drr"

    def __init__(self, quantum_bytes: int = 1500) -> None:
        if quantum_bytes <= 0:
            raise ValueError("quantum must be positive")
        self.quantum_bytes = quantum_bytes
        self._pointer = 0
        #: Whether the queue currently under the pointer has already received
        #: its quantum for this visit (a visit ends when the pointer moves on).
        self._visit_credited = False

    def _advance(self, n: int) -> None:
        self._pointer = (self._pointer + 1) % n
        self._visit_credited = False

    def select(self, queues: Sequence[SwitchQueue]) -> Optional[SwitchQueue]:
        active = [q for q in queues if q.is_active]
        if not active:
            return None
        n = len(queues)
        # At most two full rounds: one to top up deficits, one to pick.
        for _ in range(2 * n + 1):
            queue = queues[self._pointer % n]
            if not queue.is_active:
                # An idle queue forfeits its deficit (standard DRR).
                queue.deficit_bytes = 0.0
                self._advance(n)
                continue
            if not self._visit_credited:
                queue.deficit_bytes += self.quantum_bytes * queue.weight
                self._visit_credited = True
            head = queue.peek_head()
            assert head is not None
            if queue.deficit_bytes >= head.size_bytes:
                queue.deficit_bytes -= head.size_bytes
                return queue
            self._advance(n)
        # Fallback: guarantee progress even with pathological weights.
        return active[0]


def make_scheduler(name: str, quantum_bytes: int = 1500) -> Scheduler:
    """Factory mapping configuration strings to scheduler instances."""
    name = name.lower()
    if name == "fifo":
        return FifoScheduler()
    if name in ("strict", "sp", "strict_priority"):
        return StrictPriorityScheduler()
    if name == "wrr":
        return WeightedRoundRobinScheduler()
    if name == "drr":
        return DeficitRoundRobinScheduler(quantum_bytes=quantum_bytes)
    raise ValueError(f"unknown scheduler {name!r}")
