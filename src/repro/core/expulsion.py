"""Occamy's reactive component: the packet-expulsion engine.

The engine mirrors the egress-side datapath of Figure 8/9 in the paper:

* a **head-drop selector** -- per-queue comparators (queue length against the
  admission threshold ``T_i(t)``) feeding a round-robin arbiter;
* a **fixed-priority arbiter** makes head drops yield to the output scheduler
  -- modelled here through a :class:`TokenBucket` that only grants expulsions
  out of *redundant* memory bandwidth (the same token-bucket construction as
  the paper's DPDK prototype, Section 5.3);
* a **head-drop executor** dequeues the victim packet's descriptor and returns
  its cell pointers to the free list without touching cell data memory.

In hardware the comparators run in parallel, so a switch with nothing
over-allocated does no extra work per packet.  The model gets the same cost
profile from a bound instead of a bitmap.  With DT-family thresholds
``T_i = alpha_i * F`` (``F`` free bytes, ``U`` used bytes, ``q_i`` queue
lengths), both ``U`` and ``F`` count whole cells and an ``s``-byte packet holds
``ceil(s / cell) * cell >= s`` of them, so ``U >= sum_i q_i >= q_i`` (packets in
flight on a port only add to ``U``).  Hence, while

    U <= alpha_min * F          (alpha_min = the smallest alpha_i)

every queue has ``q_i <= U <= alpha_min * F <= alpha_i * F = T_i``: no
comparator can be set, and the engine returns after two integer reads and a
compare.  With Occamy's ``alpha = 8`` that covers every occupancy up to 8/9 of
the buffer.  Above it the engine asks the manager for one victim per head
drop through a fused scan that reads the free-buffer term once, so it stays
policy-agnostic and serves both round-robin Occamy and the longest-queue-drop
variant evaluated in Figure 21.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import BufferManager
    from repro.switchsim.switch import SharedMemorySwitch


class TokenBucket:
    """A continuous-time token bucket measured in buffer cells.

    Tokens are generated at ``rate_cells_per_sec`` and capped at
    ``capacity_cells``.  The forwarding (TX) path is always allowed to consume
    tokens, even driving the balance negative, because line-rate forwarding
    must never be blocked; the expulsion path may only consume tokens that are
    actually available.  This reproduces the prototype's accounting of
    *redundant* memory bandwidth.
    """

    def __init__(self, rate_cells_per_sec: float, capacity_cells: float) -> None:
        if rate_cells_per_sec <= 0:
            raise ValueError("token rate must be positive")
        if capacity_cells <= 0:
            raise ValueError("capacity must be positive")
        self.rate = rate_cells_per_sec
        self.capacity = capacity_cells
        self._tokens = capacity_cells
        self._last_update = 0.0
        #: Cumulative cells consumed by expulsion (statistics).
        self.expel_cells_consumed = 0.0

    def _refill(self, now: float) -> None:
        # Nothing accrues within one instant (a grant attempt refills up to
        # three times at the same ``now``), and a tiny floating-point
        # regression of the caller's clock must not corrupt the balance.
        if now <= self._last_update:
            return
        elapsed = now - self._last_update
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._last_update = now

    def available(self, now: float) -> float:
        """Tokens (cells) available at time ``now``."""
        self._refill(now)
        return self._tokens

    def consume_forwarding(self, cells: float, now: float) -> None:
        """Consume tokens for normal forwarding; may drive the balance negative."""
        if cells < 0:
            raise ValueError("cells must be non-negative")
        self._refill(now)
        self._tokens -= cells

    def try_consume_expulsion(self, cells: float, now: float) -> bool:
        """Consume tokens for an expulsion iff enough are available.

        A small epsilon absorbs floating-point residue so that a balance of
        7.999999999 cells still covers an 8-cell packet.
        """
        if cells < 0:
            raise ValueError("cells must be non-negative")
        self._refill(now)
        if self._tokens + 1e-9 < cells:
            return False
        self._tokens -= cells
        self.expel_cells_consumed += cells
        return True

    def time_until(self, cells: float, now: float) -> float:
        """Seconds until ``cells`` tokens will be available (0 if already)."""
        self._refill(now)
        deficit = cells - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class RoundRobinPointer:
    """The round-robin arbiter of the head-drop selector (functional model).

    Given a bitmap of eligible queues, return the first eligible index at or
    after the pointer, then advance the pointer past it -- exactly the grant
    behaviour of the combinational round-robin arbiters used in crossbar
    schedulers.  The engine fuses comparators and arbiter into one scan and
    keeps only the pointer; this bitmap form stays as the reference the
    property tests compare that scan against.
    """

    def __init__(self) -> None:
        self._pointer = 0

    @property
    def pointer(self) -> int:
        return self._pointer

    def grant(self, bitmap: Sequence[bool]) -> Optional[int]:
        """Pick the next set bit in round-robin order, or None if none set."""
        n = len(bitmap)
        if n == 0:
            return None
        start = self._pointer % n
        for offset in range(n):
            idx = (start + offset) % n
            if bitmap[idx]:
                self._pointer = (idx + 1) % n
                return idx
        return None


class ExpulsionEngine:
    """Drives head drops for over-allocated queues using redundant bandwidth.

    The engine is owned by a :class:`~repro.switchsim.switch.SharedMemorySwitch`
    and invoked opportunistically after enqueues and dequeues.  Each invocation
    that finds an over-allocated queue is one *pass*: it expels as many packets
    as the token bucket allows (bounded by ``max_drops_per_run`` to keep single
    events cheap), then reports how long it is blocked waiting for memory
    bandwidth so the switch can schedule a retry.
    """

    def __init__(
        self,
        switch: "SharedMemorySwitch",
        manager: "BufferManager",
        token_bucket: TokenBucket,
        victim_policy: str = "round_robin",
        max_drops_per_run: int = 64,
    ) -> None:
        if victim_policy not in ("round_robin", "longest"):
            raise ValueError(f"unknown victim policy: {victim_policy!r}")
        self.switch = switch
        self.manager = manager
        self.token_bucket = token_bucket
        self.victim_policy = victim_policy
        self.max_drops_per_run = max_drops_per_run
        #: The round-robin arbiter's pointer: where the next victim scan starts.
        self.pointer = 0
        #: Cumulative diagnostics, never part of a result document.  A pass
        #: is an invocation that granted a victim; idle ones touch nothing.
        self.total_expelled_packets = 0
        self.total_expelled_bytes = 0
        self.passes = 0
        self.token_blocked_passes = 0
        self.max_victims_per_pass = 0

    def run(self, now: float) -> float:
        """Expel head packets from over-allocated queues while bandwidth allows.

        Returns the seconds until a pass that stopped for lack of tokens can
        resume, else ``0.0`` -- also when the tokens can never come because
        the victim's head packet exceeds the bucket's capacity.  While
        ``U <= alpha_min * F`` (module docstring) nothing is scanned, counted
        or allocated.
        """
        manager = self.manager
        if manager.proves_none_over_allocated():
            return 0.0
        switch = self.switch
        queues = switch.queue_views()
        longest = self.victim_policy == "longest"
        bucket = self.token_bucket
        victims = 0
        blocked = False
        retry_after = 0.0
        for _ in range(self.max_drops_per_run):
            if longest:
                index = manager.longest_over_allocated(now)
            else:
                index = manager.first_over_allocated(self.pointer, now)
            if index is None:
                break
            if not longest:
                # The arbiter moves past every grant, including one that is
                # then blocked on tokens.
                self.pointer = (index + 1) % len(queues)
            # Over-allocated means longer than a non-negative threshold, so
            # the victim has a head packet.
            cells = queues[index].peek_head().num_cells
            if not bucket.try_consume_expulsion(cells, now):
                blocked = True
                # A head packet larger than the whole bucket can never be
                # granted: waiting for it would only burn events.  Otherwise
                # never retry more often than one cell-time: retrying on
                # sub-cell token deficits would flood the event queue.
                if cells <= bucket.capacity:
                    retry_after = max(bucket.time_until(cells, now),
                                      1.0 / bucket.rate)
                break
            self.total_expelled_bytes += switch.head_drop(index, now)
            victims += 1
        if victims or blocked:
            self.passes += 1
            self.total_expelled_packets += victims
            if blocked:
                self.token_blocked_passes += 1
            if victims > self.max_victims_per_pass:
                self.max_victims_per_pass = victims
        return retry_after
