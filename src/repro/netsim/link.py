"""Unidirectional links with propagation delay and a rate/capacity identity.

Serialization delay is modelled by the *sender* (a host NIC or a switch egress
port), so a link only adds propagation delay and hands the packet to the
receiving node's ``deliver`` method.  A link nevertheless *owns* its rate:
:class:`LinkSpec` couples the rate, the propagation delay and an optional
degradation factor, and the wiring layer (:class:`repro.netsim.network.Network`)
propagates the link's effective rate back into the sender's serializer (the
egress port or the host NIC) so asymmetric fabrics serialize each packet at
the rate of the wire it is about to cross, not at one fabric-wide rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Deque, Optional, Protocol

from collections import deque

from repro.sim.engine import Simulator
from repro.switchsim.packet import Packet


@dataclass(frozen=True)
class LinkSpec:
    """The declarative identity of one (direction of a) link.

    Attributes:
        rate_bps: nominal capacity of the link in bits per second.  ``None``
            means "inherit the sender's rate" (the legacy single-rate model);
            when set, the sender serializes at :attr:`effective_rate_bps`.
        delay: one-way propagation delay in seconds.
        degraded_factor: multiplicative capacity degradation in ``(0, 1]``;
            ``1.0`` is a healthy link, ``0.5`` a half-rate one.  Degradation
            scales both the serialization rate and the link's ECMP weight.
    """

    rate_bps: Optional[float] = None
    delay: float = 0.0
    degraded_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_bps is not None and not self.rate_bps > 0:
            raise ValueError(
                f"link rate must be positive, got {self.rate_bps!r}")
        if self.delay < 0:
            raise ValueError(
                f"propagation delay cannot be negative, got {self.delay!r}")
        if not 0 < self.degraded_factor <= 1:
            raise ValueError(
                "degraded_factor must be in (0, 1], got "
                f"{self.degraded_factor!r}")

    @property
    def effective_rate_bps(self) -> Optional[float]:
        """The degradation-adjusted capacity (``None`` when rate is unset)."""
        if self.rate_bps is None:
            return None
        return self.rate_bps * self.degraded_factor

    def degraded(self, factor: float) -> "LinkSpec":
        """A copy with ``factor`` folded into the degradation."""
        return LinkSpec(rate_bps=self.rate_bps, delay=self.delay,
                        degraded_factor=self.degraded_factor * factor)


class Deliverable(Protocol):
    """Anything that can receive packets from a link (hosts, switch nodes)."""

    def deliver(self, packet: Packet) -> None: ...


class Link:
    """A unidirectional link towards ``dst_node`` with fixed propagation delay.

    A link may carry a rate identity (``rate_bps`` / ``degraded_factor``, see
    :class:`LinkSpec`); the wiring layer uses it to retune the sender-side
    serializer and the ECMP weight of the port feeding this link.  A *failed*
    link (``failed=True``) is excluded from routing by the fabric layer; any
    packet that still reaches it (a misconfiguration) is blackholed and
    counted in ``dropped_packets``.
    """

    def __init__(self, sim: Simulator, dst_node: Deliverable, delay: float,
                 name: str = "", rate_bps: Optional[float] = None,
                 degraded_factor: float = 1.0) -> None:
        # One authoritative rule set for link parameters: LinkSpec's
        # __post_init__ validates rate/delay/degradation.
        LinkSpec(rate_bps=rate_bps, delay=delay,
                 degraded_factor=degraded_factor)
        self.sim = sim
        self.dst_node = dst_node
        self.delay = delay
        self.name = name
        self.rate_bps = rate_bps
        self.degraded_factor = degraded_factor
        self.failed = False
        self.packets_carried = 0
        self.bytes_carried = 0
        #: Packets blackholed because they hit a failed link (should stay 0:
        #: the routing layer excludes failed links from every candidate set).
        self.dropped_packets = 0
        #: Packets currently propagating, in arrival order.  The propagation
        #: delay is constant, so departures arrive FIFO and one prebuilt
        #: bound method can deliver them without per-packet closures (events
        #: scheduled at equal timestamps also fire in scheduling order, so
        #: the pop order always matches the event order).
        self._in_flight: Deque[Packet] = deque()
        #: Delivery batches: packets entering the link at the same instant
        #: arrive at the same instant, so only the first of a same-timestamp
        #: run schedules an ``_arrive`` event; the rest ride it.  One heap
        #: push/pop per *distinct* arrival time instead of one per packet:
        #: ``_batch_counts[i]`` is the packet count of the i-th pending
        #: event, ``_tail_time`` the arrival time of the newest batch.
        #: Arrival times grow monotonically (``now + delay``), so a new
        #: batch can never collide with an already-fired timestamp.
        self._batch_counts: Deque[int] = deque()
        self._tail_time = -1.0
        #: Same-timestamp heap band of this link's ``_arrive`` events.  0 by
        #: default (plain FIFO tie-break); the runner assigns every fabric
        #: link a distinct positive priority from the sorted link list
        #: (``Network.assign_event_priorities``) so that same-instant
        #: arrivals on different wires execute in a *content-determined*
        #: order -- the property the sharded engine needs to replay
        #: cross-shard arrivals byte-identically to the one-process oracle.
        self.event_priority = 0

    @classmethod
    def from_spec(cls, sim: Simulator, dst_node: Deliverable, spec: LinkSpec,
                  name: str = "") -> "Link":
        return cls(sim, dst_node, spec.delay, name=name,
                   rate_bps=spec.rate_bps,
                   degraded_factor=spec.degraded_factor)

    @property
    def effective_rate_bps(self) -> Optional[float]:
        """Degradation-adjusted capacity (``None`` = inherit sender's rate)."""
        if self.rate_bps is None:
            return None
        return self.rate_bps * self.degraded_factor

    def transmit(self, packet: Packet) -> None:
        """Start propagating ``packet``; it arrives ``delay`` seconds later."""
        self.packets_carried += 1
        self.bytes_carried += packet.size_bytes
        if self.delay == 0:
            self.dst_node.deliver(packet)
            return
        self._in_flight.append(packet)
        time = self.sim.now + self.delay
        if time == self._tail_time:
            # Same-instant departure on the same wire: ride the event that is
            # already scheduled for this arrival time (delivery order within
            # the link is FIFO either way).
            self._batch_counts[-1] += 1
            return
        self._tail_time = time
        self._batch_counts.append(1)
        # Inlined Simulator.schedule_fast: links schedule one event per
        # distinct arrival instant, the hottest remaining scheduling call.
        queue = self.sim._queue
        heappush(queue._heap,
                 (time, self.event_priority, next(queue._counter),
                  self._arrive))

    def _transmit_failed(self, packet: Packet) -> None:
        """`transmit` of a failed link: blackhole (see :meth:`set_failed`)."""
        self.dropped_packets += 1

    def set_failed(self, failed: bool = True) -> None:
        """Mark the link failed (or repaired).

        Packets already in flight still arrive; new ones are blackholed.
        Implemented by swapping the instance's ``transmit`` method so the
        healthy fast path pays no per-packet status check.
        """
        self.failed = failed
        if failed:
            self.transmit = self._transmit_failed  # type: ignore[method-assign]
        else:
            self.__dict__.pop("transmit", None)

    def _arrive(self) -> None:
        count = self._batch_counts.popleft()
        in_flight = self._in_flight
        if count == 1:
            self.dst_node.deliver(in_flight.popleft())
            return
        deliver = self.dst_node.deliver
        for _ in range(count):
            deliver(in_flight.popleft())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        rate = ("inherit" if self.rate_bps is None
                else f"{self.effective_rate_bps / 1e9:.1f}Gbps")
        status = " FAILED" if self.failed else ""
        return (f"<Link {self.name or id(self)} delay={self.delay * 1e6:.1f}us "
                f"rate={rate}{status}>")
