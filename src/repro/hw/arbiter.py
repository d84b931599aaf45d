"""Bit-level functional models of the arbiters used by Occamy.

Two arbiters appear in the design (Figure 8/9):

* a **round-robin arbiter** inside the head-drop selector, iterating over the
  bitmap of over-allocated queues;
* a **fixed-priority arbiter** that resolves read conflicts between the output
  scheduler and the head-drop selector -- the scheduler always wins, so
  expulsion can never delay line-rate forwarding.

These classes mirror the request/grant semantics of the hardware components so
they can be tested exhaustively and reused by the cost models.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class RoundRobinArbiterCircuit:
    """A programmable-priority (round-robin) arbiter over ``n`` request lines."""

    def __init__(self, num_requests: int) -> None:
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        self.num_requests = num_requests
        self._pointer = 0
        self.grant_history: List[int] = []

    def arbitrate(self, requests: Sequence[bool]) -> Optional[int]:
        """Grant the first asserted request at or after the pointer."""
        if len(requests) != self.num_requests:
            raise ValueError(
                f"expected {self.num_requests} request lines, got {len(requests)}"
            )
        for offset in range(self.num_requests):
            idx = (self._pointer + offset) % self.num_requests
            if requests[idx]:
                self._pointer = (idx + 1) % self.num_requests
                self.grant_history.append(idx)
                return idx
        return None


class FixedPriorityArbiter:
    """A two-input fixed-priority arbiter: the scheduler always beats head-drop.

    The arbiter is stateless combinational logic; the class simply records how
    often head drops were blocked so experiments can report contention.
    """

    def __init__(self) -> None:
        self.scheduler_grants = 0
        self.headdrop_grants = 0
        self.headdrop_blocked = 0

    def arbitrate(self, scheduler_request: bool, headdrop_request: bool) -> Optional[str]:
        """Return which requester wins the memory read port this cycle."""
        if scheduler_request:
            self.scheduler_grants += 1
            if headdrop_request:
                self.headdrop_blocked += 1
            return "scheduler"
        if headdrop_request:
            self.headdrop_grants += 1
            return "headdrop"
        return None

    def blocking_fraction(self) -> float:
        """Fraction of head-drop requests that had to wait for the scheduler."""
        total = self.headdrop_grants + self.headdrop_blocked
        if total == 0:
            return 0.0
        return self.headdrop_blocked / total
