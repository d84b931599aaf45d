"""End hosts: a rate-limited NIC plus per-flow transport endpoints."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.sim.engine import Simulator
from repro.switchsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.link import Link
    from repro.netsim.transport.base import ReceiverState, SenderTransport


class Host:
    """A host with one NIC: FIFO transmit queue, line-rate serialization.

    Senders (:class:`SenderTransport`) and receivers (:class:`ReceiverState`)
    for individual flows register with the host; the host demultiplexes
    arriving packets to them by flow id and serializes outgoing packets at the
    NIC rate.
    """

    def __init__(self, host_id: int, sim: Simulator, nic_rate_bps: float) -> None:
        if nic_rate_bps <= 0:
            raise ValueError("NIC rate must be positive")
        self.host_id = host_id
        self.sim = sim
        self.nic_rate_bps = nic_rate_bps
        self.link: Optional["Link"] = None

        self._tx_queue: Deque[Packet] = deque()
        self._tx_busy = False
        #: Packet currently serializing on the NIC (valid while ``_tx_busy``);
        #: kept here so the transmit loop schedules one prebuilt bound method
        #: instead of allocating a closure per packet.
        self._tx_inflight: Optional[Packet] = None

        self.senders: Dict[int, "SenderTransport"] = {}
        self.receivers: Dict[int, "ReceiverState"] = {}

        # Statistics.
        self.sent_packets = 0
        self.sent_bytes = 0
        self.received_packets = 0
        self.received_bytes = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_link(self, link: "Link") -> None:
        """Attach the uplink towards the access switch.

        A link carrying its own rate identity retunes the NIC: the host
        serializes at the *link's* effective rate (degraded host uplinks).
        """
        self.link = link
        rate = link.effective_rate_bps
        if rate is not None:
            self.nic_rate_bps = rate

    def add_sender(self, transport: "SenderTransport") -> None:
        self.senders[transport.spec.flow_id] = transport

    def add_receiver(self, receiver: "ReceiverState") -> None:
        self.receivers[receiver.spec.flow_id] = receiver

    def sender_finished(self, transport: "SenderTransport") -> None:
        """Hook invoked by a sender when its last byte is acknowledged."""
        # Keep the entry so late ACKs are silently absorbed; nothing to do.

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> None:
        """Queue a packet for transmission on the NIC."""
        if self.link is None:
            raise RuntimeError(f"host {self.host_id} has no attached link")
        self._tx_queue.append(packet)
        self._try_transmit()

    def _try_transmit(self) -> None:
        if self._tx_busy or not self._tx_queue:
            return
        packet = self._tx_queue.popleft()
        self._tx_busy = True
        self._tx_inflight = packet
        delay = packet.size_bytes * 8 / self.nic_rate_bps
        self.sim.schedule_fast(delay, self._finish_transmit)

    def _finish_transmit(self) -> None:
        packet = self._tx_inflight
        self._tx_inflight = None
        self._tx_busy = False
        self.sent_packets += 1
        self.sent_bytes += packet.size_bytes
        assert self.link is not None
        self.link.transmit(packet)
        self._try_transmit()

    @property
    def tx_backlog_packets(self) -> int:
        return len(self._tx_queue)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Handle a packet arriving from the access link."""
        self.received_packets += 1
        self.received_bytes += packet.size_bytes
        if packet.is_ack:
            sender = self.senders.get(packet.flow_id)
            if sender is not None:
                sender.on_ack(packet)
            return
        receiver = self.receivers.get(packet.flow_id)
        if receiver is None:
            # Data for an unknown flow (e.g. arrived after completion bookkeeping
            # was torn down in a test); drop silently.
            return
        ack = receiver.on_data(packet, self.sim.now)
        self.send_packet(ack)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Host {self.host_id} rate={self.nic_rate_bps / 1e9:.0f}Gbps>"
