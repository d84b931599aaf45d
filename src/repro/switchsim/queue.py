"""Per-port, per-class queues of packet descriptors."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Protocol

from repro.switchsim.cells import PacketDescriptor


class ActivityListener(Protocol):
    """Owner interested in empty<->non-empty transitions and alpha writes
    (the switch)."""

    def queue_became_active(self, queue: "SwitchQueue") -> None: ...

    def queue_became_inactive(self, queue: "SwitchQueue") -> None: ...

    def queue_alpha_changed(self, queue: "SwitchQueue") -> None: ...


class SwitchQueue:
    """A queue of packet descriptors, matching the PD linked list of Figure 2.

    The queue also satisfies the :class:`repro.core.base.QueueView` protocol so
    buffer-management schemes can observe it directly.

    Attributes:
        queue_id: globally unique queue index within the switch.
        port_id: the egress port this queue belongs to.
        class_index: index of the queue within its port (traffic class).
        priority: scheduling priority; lower value = higher priority.
        weight: scheduling weight for DRR.
        length_bytes: bytes currently queued (maintained by push/pop; a plain
            slot because admission and the expulsion scan read it per packet).
        alpha_override: optional per-queue DT/ABM alpha (commodity chips allow
            per-queue alpha configuration, used heavily in the paper's
            priority experiments).  A plain attribute; writing it notifies
            the listener so the buffer manager can refresh what it caches.
        ecn_threshold_bytes: optional per-queue ECN marking threshold.
        activity_listener: optional owner notified on every empty<->non-empty
            transition and ``alpha_override`` write; the switch uses it to
            maintain per-priority active queue counts incrementally instead
            of rescanning all queues.
    """

    __slots__ = (
        "queue_id", "port_id", "class_index", "priority", "weight",
        "_alpha_override", "ecn_threshold_bytes", "activity_listener",
        "_descriptors", "length_bytes", "deficit_bytes", "_drain_rate",
        "_last_dequeue_time", "enqueued_packets", "enqueued_bytes",
        "dequeued_packets", "dequeued_bytes", "dropped_packets",
        "dropped_bytes", "expelled_packets", "expelled_bytes",
    )

    def __init__(
        self,
        queue_id: int,
        port_id: int,
        class_index: int = 0,
        priority: int = 0,
        weight: float = 1.0,
        alpha_override: Optional[float] = None,
        ecn_threshold_bytes: Optional[int] = None,
    ) -> None:
        self.queue_id = queue_id
        self.port_id = port_id
        self.class_index = class_index
        self.priority = priority
        self.weight = weight
        self._alpha_override = alpha_override
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.activity_listener: Optional[ActivityListener] = None

        self._descriptors: Deque[PacketDescriptor] = deque()
        self.length_bytes = 0
        #: Deficit counter used by the DRR scheduler.
        self.deficit_bytes = 0.0
        #: Exponentially weighted drain-rate estimate in bytes/second.
        self._drain_rate = 0.0
        self._last_dequeue_time: Optional[float] = None

        # Cumulative statistics.
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.expelled_packets = 0
        self.expelled_bytes = 0

    # ------------------------------------------------------------------
    # QueueView protocol
    # ------------------------------------------------------------------
    @property
    def alpha_override(self) -> Optional[float]:
        return self._alpha_override

    @alpha_override.setter
    def alpha_override(self, value: Optional[float]) -> None:
        self._alpha_override = value
        if self.activity_listener is not None:
            self.activity_listener.queue_alpha_changed(self)

    @property
    def length_packets(self) -> int:
        return len(self._descriptors)

    @property
    def drain_rate_estimate(self) -> float:
        return self._drain_rate

    @property
    def is_active(self) -> bool:
        """A queue is active when it holds at least one packet."""
        return bool(self._descriptors)

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def push(self, descriptor: PacketDescriptor) -> None:
        """Append a descriptor at the tail (normal enqueue)."""
        descriptors = self._descriptors
        was_empty = not descriptors
        descriptors.append(descriptor)
        size = descriptor.packet.size_bytes
        self.length_bytes += size
        self.enqueued_packets += 1
        self.enqueued_bytes += size
        if was_empty and self.activity_listener is not None:
            self.activity_listener.queue_became_active(self)

    def peek_head(self) -> Optional[PacketDescriptor]:
        """The descriptor at the head of the queue, without removing it."""
        return self._descriptors[0] if self._descriptors else None

    def pop_head(self) -> Optional[PacketDescriptor]:
        """Remove and return the head descriptor (dequeue or head drop)."""
        descriptors = self._descriptors
        if not descriptors:
            return None
        descriptor = descriptors.popleft()
        self.length_bytes -= descriptor.packet.size_bytes
        if not descriptors and self.activity_listener is not None:
            self.activity_listener.queue_became_inactive(self)
        return descriptor

    def pop_tail(self) -> Optional[PacketDescriptor]:
        """Remove and return the tail descriptor (classic pushout eviction)."""
        descriptors = self._descriptors
        if not descriptors:
            return None
        descriptor = descriptors.pop()
        self.length_bytes -= descriptor.packet.size_bytes
        if not descriptors and self.activity_listener is not None:
            self.activity_listener.queue_became_inactive(self)
        return descriptor

    # ------------------------------------------------------------------
    # Statistics hooks
    # ------------------------------------------------------------------
    def record_dequeue(self, size_bytes: int, now: float) -> None:
        """Update counters and the drain-rate estimate after a transmission."""
        self.dequeued_packets += 1
        self.dequeued_bytes += size_bytes
        last = self._last_dequeue_time
        if last is not None:
            delta = now - last
            if delta > 0:
                # EWMA with a modest gain: responsive but not jittery.
                self._drain_rate = (0.8 * self._drain_rate
                                    + 0.2 * (size_bytes / delta))
        self._last_dequeue_time = now

    def record_drop(self, size_bytes: int, expelled: bool = False) -> None:
        """Update drop counters (``expelled`` = proactive head drop)."""
        if expelled:
            self.expelled_packets += 1
            self.expelled_bytes += size_bytes
        else:
            self.dropped_packets += 1
            self.dropped_bytes += size_bytes

    def clear(self) -> None:
        """Empty the queue (used by tests and switch reset)."""
        was_active = bool(self._descriptors)
        self._descriptors.clear()
        self.length_bytes = 0
        self.deficit_bytes = 0.0
        if was_active and self.activity_listener is not None:
            self.activity_listener.queue_became_inactive(self)

    def __len__(self) -> int:
        return len(self._descriptors)
