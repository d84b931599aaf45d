"""Base classes and protocols shared by all buffer management schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.switchsim.switch import SharedMemorySwitch


@runtime_checkable
class QueueView(Protocol):
    """The queue state a buffer manager is allowed to observe.

    The on-chip admission logic only sees queue-length statistics (Figure 1 of
    the paper); this protocol captures exactly that, plus the static queue
    attributes (port, priority, per-queue alpha override) that commodity chips
    expose through configuration.
    """

    @property
    def queue_id(self) -> int: ...

    @property
    def port_id(self) -> int: ...

    @property
    def length_bytes(self) -> int: ...

    @property
    def length_packets(self) -> int: ...

    @property
    def priority(self) -> int: ...

    @property
    def alpha_override(self) -> Optional[float]: ...

    @property
    def drain_rate_estimate(self) -> float: ...


@dataclass
class EvictionRequest:
    """A request to evict bytes from a victim queue to make room.

    Attributes:
        queue_id: queue to evict from.
        from_head: if True, expel at the head (head drop); otherwise at the
            tail (classic pushout discards the newest resident packet).
        max_bytes: stop evicting once this many bytes have been freed.
    """

    queue_id: int
    from_head: bool = False
    max_bytes: int = 0


@dataclass
class AdmissionDecision:
    """The outcome of consulting a buffer manager about an arriving packet.

    Attributes:
        accept: whether the packet may be enqueued.
        evictions: evictions that must be carried out *before* the enqueue
            (only preemptive schemes such as Pushout populate this).
        reason: a short machine-readable reason for drops, used by statistics.
    """

    accept: bool
    evictions: List[EvictionRequest] = field(default_factory=list)
    reason: str = ""


#: Shared decisions used on the hot admission path: the plain accept and the
#: two threshold-scheme rejects.  Callers must treat decisions as immutable
#: (schemes that request evictions build their own instances).
ACCEPT = AdmissionDecision(True)
REJECT_BUFFER_FULL = AdmissionDecision(False, reason="buffer_full")
REJECT_OVER_THRESHOLD = AdmissionDecision(False, reason="over_threshold")


class BufferManager:
    """Abstract base class for buffer management schemes.

    Subclasses implement :meth:`threshold` and may override :meth:`admit` for
    non-threshold behaviour (e.g. Pushout).  The switch calls the two
    ``on_*_changed`` hooks when a port rate or a queue alpha is rewritten
    after attach, so schemes caching them (ABM, DT) stay consistent.

    The scheme is attached to a switch with :meth:`attach`; afterwards
    ``self.switch`` exposes the buffer size, occupancy and queue views.
    """

    #: Human-readable scheme name (used by the registry and experiment output).
    name: str = "base"

    #: Whether the scheme may evict already-accepted packets on admission
    #: (Pushout-style preemption coupled to the enqueue path).
    preemptive_admission: bool = False

    #: Whether the scheme drives the switch's expulsion engine (Occamy-style
    #: decoupled preemption on the egress side).  The engine's victim scans
    #: are DynamicThreshold's, so such a scheme derives from it.
    uses_expulsion_engine: bool = False

    def __init__(self) -> None:
        self.switch: Optional["SharedMemorySwitch"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, switch: "SharedMemorySwitch") -> None:
        """Bind the scheme to a switch.  Called once by the switch."""
        self.switch = switch

    def detach(self) -> None:
        """Unbind from the switch (mainly useful in tests)."""
        self.switch = None

    # ------------------------------------------------------------------
    # Core policy
    # ------------------------------------------------------------------
    def threshold(self, queue: QueueView, now: float) -> float:
        """Return the maximum queue length (bytes) allowed for ``queue``.

        ``math.inf`` means the queue is unrestricted (complete sharing).
        """
        raise NotImplementedError

    def admit(self, queue: QueueView, packet_bytes: int, now: float) -> AdmissionDecision:
        """Decide whether an arriving ``packet_bytes``-byte packet is accepted.

        The default implementation admits iff both (a) the packet fits in the
        free buffer and (b) the queue would not exceed :meth:`threshold`.
        """
        switch = self._require_switch()
        if packet_bytes > switch.free_buffer_bytes:
            return REJECT_BUFFER_FULL
        limit = self.threshold(queue, now)
        if queue.length_bytes + packet_bytes > limit:
            return REJECT_OVER_THRESHOLD
        return ACCEPT

    def over_allocated(self, queue: QueueView, now: float) -> bool:
        """Whether ``queue`` currently holds more than its fair threshold.

        The comparator of Occamy's head-drop selector: DT's victim scans
        (which Occamy inherits) apply exactly this test per queue.
        """
        return queue.length_bytes > self.threshold(queue, now)

    def proves_none_over_allocated(self) -> bool:
        """O(1) proof that no queue currently exceeds its threshold.

        ``False`` means "cannot tell": the expulsion engine then runs the
        victim scan.  DT overrides it with ``U <= alpha_min * F``.
        """
        return False

    # ------------------------------------------------------------------
    # Change notifications (no-ops by default)
    # ------------------------------------------------------------------
    def on_port_rate_changed(self, port_id: int, rate_bps: float) -> None:
        """Called when an egress port's line rate is retuned after attach.

        The fabric layer retunes ports when a link with its own rate (or a
        degradation factor) is wired to them; schemes that cache port rates
        at attach time (ABM) refresh their cache here.
        """

    def on_queue_alpha_changed(self) -> None:
        """Called when a queue's ``alpha_override`` is written after attach
        (DT refreshes its cached per-queue alphas here)."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_switch(self) -> "SharedMemorySwitch":
        if self.switch is None:
            raise RuntimeError(
                f"buffer manager {self.name!r} is not attached to a switch"
            )
        return self.switch

    def effective_alpha(self, queue: QueueView, default_alpha: float) -> float:
        """Per-queue alpha override falling back to the scheme default."""
        override = queue.alpha_override
        return default_alpha if override is None else override

    def describe(self) -> str:
        """One-line human-readable description used in experiment output."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.describe()}>"


def clamp_threshold(value: float) -> float:
    """Clamp a computed threshold into ``[0, inf)`` (free buffer can be 0)."""
    if value < 0:
        return 0.0
    if math.isnan(value):
        return 0.0
    return value
