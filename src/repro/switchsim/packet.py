"""The packet abstraction shared by the switch and network simulators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """A network packet (or a raw traffic-manager cell burst in switch tests).

    Only ``size_bytes`` matters to the traffic manager; the remaining fields
    carry end-to-end semantics for the network simulator (flow identity,
    sequencing, ECN, priority class).

    Attributes:
        size_bytes: wire size of the packet, including headers.
        flow_id: identifier of the owning flow (-1 for anonymous traffic).
        src / dst: host identifiers (netsim) or free-form labels.
        seq: first byte sequence number carried by this packet.
        payload_bytes: number of flow bytes carried (0 for pure ACKs).
        is_ack: whether this is an acknowledgement packet.
        ack_seq: cumulative ACK number (valid when ``is_ack``).
        ecn_capable: whether the packet may be ECN-marked instead of dropped.
        ecn_marked: set by the switch when the queue exceeds the ECN threshold.
        ecn_echo: set on ACKs echoing a mark back to the sender.
        priority: traffic class; lower value = higher priority.
        created_at: simulation time the packet was created (for latency stats).
        metadata: free-form annotations (e.g. query id) used by workloads.
        packet_id: process-wide serial number, fresh per constructed packet.
    """

    size_bytes: int
    flow_id: int = -1
    src: int = -1
    dst: int = -1
    seq: int = 0
    payload_bytes: int = 0
    is_ack: bool = False
    ack_seq: int = 0
    ecn_capable: bool = True
    ecn_marked: bool = False
    ecn_echo: bool = False
    priority: int = 0
    created_at: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")

    def copy_header(self) -> "Packet":
        """Return a shallow copy with a fresh packet id (used for retransmits)."""
        clone = Packet(
            size_bytes=self.size_bytes,
            flow_id=self.flow_id,
            src=self.src,
            dst=self.dst,
            seq=self.seq,
            payload_bytes=self.payload_bytes,
            is_ack=self.is_ack,
            ack_seq=self.ack_seq,
            ecn_capable=self.ecn_capable,
            priority=self.priority,
            created_at=self.created_at,
            metadata=dict(self.metadata),
        )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"<Packet #{self.packet_id} {kind} flow={self.flow_id} "
            f"seq={self.seq} size={self.size_bytes}B prio={self.priority}>"
        )
