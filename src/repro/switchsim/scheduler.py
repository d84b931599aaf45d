"""Egress schedulers: FIFO, strict priority and deficit round robin.

A scheduler selects which of a port's queues transmits next.  All schedulers
implement :meth:`Scheduler.select`, which returns the chosen queue (without
dequeuing) or ``None`` when every queue is empty.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    if name == "drr":
        return DeficitRoundRobinScheduler(quantum_bytes=quantum_bytes)
    raise ValueError(
        f"unknown scheduler {name!r}; available: drr, fifo, strict")
