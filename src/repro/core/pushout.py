"""Pushout: the classic preemptive buffer manager (considered optimal).

Pushout admits an arriving packet whenever free buffer exists.  When the
buffer is full, it expels packets from the *longest* queue to make room
(Wei et al. 1991; Choudhury & Hahne 1996).  If the arriving packet's own queue
is the longest, the arrival itself is dropped instead -- evicting from your own
queue to admit yourself would be pointless.

Pushout couples expulsion with the enqueue path (the paper's "Difficulty 2"),
which is exactly what this implementation models: the admission decision can
carry :class:`~repro.core.base.EvictionRequest` items that the switch must
execute before enqueuing the new packet.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.base import ACCEPT, AdmissionDecision, BufferManager, EvictionRequest, QueueView


class Pushout(BufferManager):
    """Longest-queue pushout with optional head/tail eviction.

    Args:
        evict_from_head: if True, evictions remove the oldest packet of the
            victim queue (drop-from-front, which is better for TCP timeouts);
            otherwise the newest resident packet is pushed out, matching the
            classic formulation.
    """

    name = "pushout"
    preemptive_admission = True

    def __init__(self, evict_from_head: bool = True) -> None:
        super().__init__()
        self.evict_from_head = evict_from_head

    def threshold(self, queue: QueueView, now: float) -> float:
        # Pushout imposes no per-queue threshold; admission is governed purely
        # by global occupancy plus eviction.
        return math.inf

    def admit(self, queue: QueueView, packet_bytes: int, now: float) -> AdmissionDecision:
        switch = self._require_switch()
        free = switch.free_buffer_bytes
        if packet_bytes <= free:
            return ACCEPT
        if packet_bytes > switch.buffer_size_bytes:
            return AdmissionDecision(False, reason="packet_larger_than_buffer")

        needed = packet_bytes - free
        evictions: List[EvictionRequest] = []
        # Repeatedly pick the longest queue until enough bytes would be freed.
        # The switch executes these in order; queue lengths observed here are a
        # snapshot, so we conservatively plan against the snapshot.
        planned: dict[int, int] = {}
        while needed > 0:
            victim = self._longest_queue(exclude_planned=planned)
            if victim is None:
                return AdmissionDecision(False, reason="no_victim")
            if victim.queue_id == queue.queue_id:
                # The arriving packet's queue is (one of) the longest: drop the
                # arrival rather than churn our own queue.
                return AdmissionDecision(False, reason="self_longest")
            available = victim.length_bytes - planned.get(victim.queue_id, 0)
            take = min(available, needed)
            if take <= 0:
                return AdmissionDecision(False, reason="no_victim")
            planned[victim.queue_id] = planned.get(victim.queue_id, 0) + take
            evictions.append(
                EvictionRequest(
                    queue_id=victim.queue_id,
                    from_head=self.evict_from_head,
                    max_bytes=take,
                )
            )
            needed -= take
        return AdmissionDecision(True, evictions=evictions)

    def _longest_queue(self, exclude_planned: dict[int, int]) -> Optional[QueueView]:
        """Return the queue with the most remaining (un-planned) bytes."""
        switch = self._require_switch()
        best: Optional[QueueView] = None
        best_len = 0
        for q in switch.queue_views():
            remaining = q.length_bytes - exclude_planned.get(q.queue_id, 0)
            if remaining > best_len:
                best = q
                best_len = remaining
        return best

    def describe(self) -> str:
        where = "head" if self.evict_from_head else "tail"
        return f"pushout(evict_from={where})"
