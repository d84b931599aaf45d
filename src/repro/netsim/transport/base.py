"""Window-based reliable transport: sender and receiver state machines.

The simulator models transport at packet granularity: a flow of ``S`` bytes is
split into ``ceil(S / mss)`` segments, each carried by one data packet and
acknowledged cumulatively by the receiver.  The sender keeps a congestion
window in segments, detects losses via three duplicate ACKs (fast retransmit)
or a retransmission timeout (go-back-N recovery), and estimates the RTO from
smoothed RTT samples.  Congestion-control variants (Reno, DCTCP, CUBIC)
override the window-adjustment hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Set

from repro.switchsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.host import Host
    from repro.workloads.spec import FlowSpec


@dataclass
class TransportConfig:
    """Parameters shared by all transport variants.

    Attributes:
        mss_bytes: maximum segment (payload) size.
        header_bytes: header overhead per packet (IP + TCP).
        ack_bytes: wire size of a pure ACK.
        initial_cwnd: initial window in segments.
        min_rto: lower bound on the retransmission timeout (the paper's
            simulations use 5 ms).
        initial_rto: RTO before the first RTT sample.
        max_rto: upper bound on the (exponentially backed-off) RTO.
        dupack_threshold: duplicate ACKs that trigger fast retransmit.
        ecn_enabled: whether data packets advertise ECN capability.
        dctcp_g: DCTCP's EWMA gain for the marked fraction.
    """

    mss_bytes: int = 1460
    header_bytes: int = 40
    ack_bytes: int = 64
    initial_cwnd: float = 10.0
    min_rto: float = 5e-3
    initial_rto: float = 10e-3
    max_rto: float = 1.0
    dupack_threshold: int = 3
    ecn_enabled: bool = True
    dctcp_g: float = 1.0 / 16.0


class ReceiverState:
    """Receiver side of a flow: reassembly, cumulative ACKs and ECN echo."""

    def __init__(self, flow_spec: "FlowSpec", config: TransportConfig,
                 on_complete: Callable[[int, float], None]) -> None:
        self.spec = flow_spec
        self.config = config
        self.total_segments = max(1, math.ceil(flow_spec.size_bytes / config.mss_bytes))
        self.rcv_nxt = 0
        self._out_of_order: Set[int] = set()
        self.completed = False
        self._on_complete = on_complete
        self.received_packets = 0

    def on_data(self, packet: Packet, now: float) -> Packet:
        """Process a data packet; returns the ACK to send back."""
        self.received_packets += 1
        seq = packet.seq
        if seq >= self.rcv_nxt:
            self._out_of_order.add(seq)
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self.rcv_nxt += 1
        ack = Packet(
            size_bytes=self.config.ack_bytes,
            flow_id=packet.flow_id,
            src=packet.dst,
            dst=packet.src,
            is_ack=True,
            ack_seq=self.rcv_nxt,
            payload_bytes=0,
            ecn_capable=False,
            priority=packet.priority,
            created_at=now,
        )
        ack.ecn_echo = packet.ecn_marked
        # Echo the sender's timestamp so it can take an RTT sample.
        if "ts" in packet.metadata:
            ack.metadata["ts_echo"] = packet.metadata["ts"]
            ack.metadata["ts_seq"] = packet.seq
        if not self.completed and self.rcv_nxt >= self.total_segments:
            self.completed = True
            self._on_complete(self.spec.flow_id, now)
        return ack


class SenderTransport:
    """Sender side of a flow: reliability, RTT estimation and a cwnd.

    Subclasses customise congestion control by overriding
    :meth:`on_new_ack_cc`, :meth:`on_ecn_feedback`, :meth:`on_fast_retransmit`
    and :meth:`on_timeout_cc`.
    """

    name = "base"

    def __init__(self, host: "Host", flow_spec: "FlowSpec",
                 config: Optional[TransportConfig] = None) -> None:
        self.host = host
        self.sim = host.sim
        self.spec = flow_spec
        self.config = config or TransportConfig()

        self.total_segments = max(
            1, math.ceil(flow_spec.size_bytes / self.config.mss_bytes)
        )
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = self.config.initial_cwnd
        self.ssthresh = float("inf")
        self.dup_acks = 0
        self.in_recovery = False
        self.recovery_point = 0
        self.finished = False

        # RTT estimation (RFC 6298 style).
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = self.config.initial_rto
        #: Lazy RTO timer: ``_rto_deadline`` is the authoritative expiry time;
        #: the scheduled event is only moved when it would fire too late, so
        #: restarting the timer on every ACK costs no heap operations.
        self._rto_event = None
        self._rto_event_time = 0.0
        self._rto_deadline: Optional[float] = None
        self._rto_backoff = 1

        # Statistics.
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.start_time: Optional[float] = None
        self.complete_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the flow: begin transmitting up to the initial window."""
        self.start_time = self.sim.now
        self._send_available()

    @property
    def done(self) -> bool:
        return self.snd_una >= self.total_segments

    @property
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _segment_payload(self, seq: int) -> int:
        if seq == self.total_segments - 1:
            remainder = self.spec.size_bytes - seq * self.config.mss_bytes
            return max(1, remainder)
        return self.config.mss_bytes

    def _build_packet(self, seq: int) -> Packet:
        payload = self._segment_payload(seq)
        packet = Packet(
            size_bytes=payload + self.config.header_bytes,
            flow_id=self.spec.flow_id,
            src=self.spec.src,
            dst=self.spec.dst,
            seq=seq,
            payload_bytes=payload,
            ecn_capable=self.config.ecn_enabled,
            priority=self.spec.priority,
            created_at=self.sim.now,
        )
        packet.metadata["ts"] = self.sim.now
        return packet

    def _send_segment(self, seq: int, retransmission: bool = False) -> None:
        packet = self._build_packet(seq)
        if retransmission:
            self.retransmissions += 1
            # Karn's algorithm: never sample RTT from retransmitted segments.
            packet.metadata.pop("ts", None)
        self.packets_sent += 1
        self.host.send_packet(packet)

    def _send_available(self) -> None:
        """Send new segments while the window allows."""
        window = max(1, int(self.cwnd))
        while (not self.done and self.snd_nxt < self.total_segments
               and self.snd_nxt - self.snd_una < window):
            self._send_segment(self.snd_nxt)
            self.snd_nxt += 1
        if not self.done:
            self._arm_rto()

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        if self.finished:
            return
        now = self.sim.now
        self._maybe_sample_rtt(packet, now)
        ack = packet.ack_seq
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            self.snd_una = ack
            self.dup_acks = 0
            self._rto_backoff = 1
            if self.in_recovery and self.snd_una >= self.recovery_point:
                self.in_recovery = False
            self.on_ecn_feedback(newly_acked, packet.ecn_echo)
            if not self.in_recovery:
                self.on_new_ack_cc(newly_acked)
            if self.done:
                self._complete(now)
                return
            self._send_available()
            self._arm_rto(restart=True)
        else:
            self.dup_acks += 1
            self.on_ecn_feedback(0, packet.ecn_echo)
            if (self.dup_acks == self.config.dupack_threshold
                    and not self.in_recovery and not self.done):
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.in_recovery = True
        self.recovery_point = self.snd_nxt
        self.on_fast_retransmit()
        self.cwnd = max(2.0, self.cwnd)
        self._send_segment(self.snd_una, retransmission=True)
        self._arm_rto(restart=True)

    def _maybe_sample_rtt(self, packet: Packet, now: float) -> None:
        ts = packet.metadata.get("ts_echo")
        if ts is None:
            return
        sample = now - ts
        if sample <= 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(
            self.config.max_rto,
            max(self.config.min_rto, self.srtt + 4 * (self.rttvar or 0.0)),
        )

    # ------------------------------------------------------------------
    # Retransmission timeout
    # ------------------------------------------------------------------
    def _arm_rto(self, restart: bool = False) -> None:
        if self.done:
            self._cancel_rto()
            return
        if self._rto_deadline is not None and not restart:
            return
        timeout = min(self.config.max_rto, self.rto * self._rto_backoff)
        self._rto_deadline = deadline = self.sim.now + timeout
        event = self._rto_event
        if event is not None:
            if self._rto_event_time <= deadline:
                # The pending event fires at or before the new deadline; when
                # it does, _on_rto re-arms for the remainder.  This is the
                # common case, so restarting the timer is free.
                return
            event.cancel()
        self._rto_event = self.sim.at(deadline, self._on_rto)
        self._rto_event_time = deadline

    def _cancel_rto(self) -> None:
        # Lazy: the pending event (if any) no-ops once the deadline is gone.
        self._rto_deadline = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.finished or self.done:
            return
        deadline = self._rto_deadline
        if deadline is None:
            return
        if self.sim.now < deadline:
            # The deadline moved out while this event was pending; re-arm at
            # the exact deadline (absolute scheduling keeps float timing
            # identical to an eagerly restarted timer).
            self._rto_event = self.sim.at(deadline, self._on_rto)
            self._rto_event_time = deadline
            return
        self.timeouts += 1
        self._rto_backoff = min(64, self._rto_backoff * 2)
        self.dup_acks = 0
        self.in_recovery = False
        self.on_timeout_cc()
        # Go-back-N: rewind the send pointer and retransmit the first
        # unacknowledged segment immediately.
        self.snd_nxt = self.snd_una
        self._send_segment(self.snd_una, retransmission=True)
        self.snd_nxt = self.snd_una + 1
        self._arm_rto(restart=True)

    def _complete(self, now: float) -> None:
        self.finished = True
        self.complete_time = now
        self._cancel_rto()
        self.host.sender_finished(self)

    # ------------------------------------------------------------------
    # Congestion-control hooks (Reno defaults)
    # ------------------------------------------------------------------
    def on_new_ack_cc(self, newly_acked: int) -> None:
        """Window growth on new cumulative ACKs (slow start / AIMD)."""
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / max(1.0, self.cwnd)

    def on_ecn_feedback(self, newly_acked: int, ecn_echo: bool) -> None:
        """ECN handling; plain Reno ignores marks."""

    def on_fast_retransmit(self) -> None:
        """Multiplicative decrease on fast retransmit."""
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = self.ssthresh

    def on_timeout_cc(self) -> None:
        """Window collapse on a retransmission timeout."""
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<{type(self).__name__} flow={self.spec.flow_id} "
            f"una={self.snd_una}/{self.total_segments} cwnd={self.cwnd:.1f}>"
        )
