"""A network switch node: shared-memory traffic manager plus routing."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.base import BufferManager
from repro.netsim.link import Link
from repro.netsim.routing import EcmpRoutingTable
from repro.sim.engine import Simulator
from repro.switchsim.packet import Packet
from repro.switchsim.switch import SharedMemorySwitch, SwitchConfig


class SwitchNode:
    """Wraps a :class:`SharedMemorySwitch` with port-to-link wiring and routing."""

    def __init__(self, name: str, sim: Simulator, config: SwitchConfig,
                 manager: BufferManager) -> None:
        self.name = name
        self.sim = sim
        self.switch = SharedMemorySwitch(
            config, manager, sim, on_transmit=self._on_transmit
        )
        self.routing = EcmpRoutingTable()
        self._links: Dict[int, Link] = {}
        #: Packets that arrived for a port with no attached link (misconfig).
        self.undeliverable = 0
        #: Packets dropped because every next hop towards their destination
        #: was failed or excluded when they arrived (a mid-run link failure
        #: stranded them; the transport retransmits over the re-pruned
        #: tables).
        self.no_route = 0
        #: The bound load-balancer policy; ``None`` for the ecmp default
        #: (the passthrough never swaps the data path, see
        #: :meth:`set_load_balancer`).
        self.lb = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, port_id: int, link: Link) -> None:
        """Attach the outgoing ``link`` to egress ``port_id``.

        A link carrying its own rate identity retunes the port: packets
        serialize at the *link's* effective rate, not the switch-wide
        nominal rate (per-tier rates, degraded links).
        """
        if not 0 <= port_id < self.switch.port_count:
            raise ValueError(f"switch {self.name} has no port {port_id}")
        self._links[port_id] = link
        rate = link.effective_rate_bps
        if rate is not None and rate != self.switch.ports[port_id].rate_bps:
            self.switch.set_port_rate(port_id, rate)

    def link_for(self, port_id: int) -> Optional[Link]:
        return self._links.get(port_id)

    def set_load_balancer(self, lb) -> None:
        """Bind an uplink-choice policy (:mod:`repro.lb`) at attach time.

        A passthrough policy (the ``ecmp`` default) or ``None`` restores the
        direct data path: no instance-level ``deliver`` override exists and
        ``self.lb`` stays ``None``, so the per-packet cost of the default is
        exactly the pre-LB code -- no branch, no delegate.  Any other policy
        is bound (``lb.bind``) and the node's ``deliver`` is swapped for the
        delegating variant, the same method-swap idiom ``Link.set_failed``
        uses.
        """
        if lb is None or lb.passthrough:
            self.lb = None
            self.__dict__.pop("deliver", None)
            return
        self.lb = lb
        lb.bind(self)
        self.deliver = self._deliver_lb  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Handle a packet arriving on an ingress link: route and admit it."""
        try:
            out_port = self.routing.route(packet)
        except LookupError:
            self.no_route += 1
            return
        self.switch.receive(packet, out_port)

    def _deliver_lb(self, packet: Packet) -> None:
        """``deliver`` with a bound load balancer (see ``set_load_balancer``).

        Host routes and single-survivor candidate sets bypass the policy
        (there is no choice to make), so downlink hops cost one memoized
        lookup and the policy only ever sees genuine multi-uplink decisions.
        """
        try:
            candidates = self.routing.candidate_ports(packet.dst)
        except LookupError:
            self.no_route += 1
            return
        if len(candidates) == 1:
            out_port = candidates[0]
        else:
            out_port = self.lb.choose(packet, candidates)
        self.switch.receive(packet, out_port)

    def _on_transmit(self, packet: Packet, port_id: int) -> None:
        link = self._links.get(port_id)
        if link is None:
            self.undeliverable += 1
            return
        link.transmit(packet)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self.switch.stats

    @property
    def manager(self) -> BufferManager:
        return self.switch.manager

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<SwitchNode {self.name} ports={self.switch.port_count}>"
