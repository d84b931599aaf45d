"""The load-balancer interface: per-switch uplink-choice policies.

A :class:`LoadBalancer` decides which surviving ECMP uplink a packet leaves
through.  :meth:`SwitchNode.set_load_balancer` binds one instance per switch
at attach time: the ``ecmp`` entry is a *passthrough* (the node keeps its
direct ``routing.route`` data path, so the default costs nothing per packet),
every other policy swaps the node's ``deliver`` method for a delegating
variant that resolves the candidate set and asks :meth:`choose`.

Policies read only state the switch already maintains -- the routing table's
surviving candidate list and the egress ports' ``backlog_bytes()`` -- and
every "random" choice derives from the deterministic :func:`~
repro.netsim.routing._mix` hash over per-switch counters, never from dict
order or :mod:`random`, so flowlet runs are byte-identical across processes
(the determinism battery pins this).

Shared bookkeeping (``decisions``, ``reroutes``, per-port packet counts)
lives on the base class so the telemetry bus can probe any policy uniformly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.netsim.routing import _mix, switch_salt
from repro.switchsim.packet import Packet

#: A flow's identity at one switch: (flow_id, destination host).  The dst
#: disambiguates the data and ACK directions of a flow, which carry the same
#: flow_id but face different candidate sets.
FlowKey = Tuple[int, int]


class LoadBalancer:
    """Base class of uplink-choice policies (one instance per switch).

    Attributes:
        name: registry name of the policy.
        passthrough: ``True`` for the ``ecmp`` entry only -- the node keeps
            its direct hash path and no per-packet delegate exists.
        decisions: packets that faced a multi-uplink choice.
        reroutes: decisions that moved an already-seen flow to a new port.
        flowlets: flowlet table entries created (0 for non-flowlet policies).
        port_packets: per-egress-port packet counts of this policy's choices.
    """

    name = "base"
    passthrough = False

    def __init__(self) -> None:
        self.node = None
        self._salt = 0
        self.decisions = 0
        self.reroutes = 0
        self.flowlets = 0
        self.port_packets: Dict[int, int] = {}
        self._last_port: Dict[FlowKey, int] = {}

    # -- binding -------------------------------------------------------
    def bind(self, node) -> None:
        """Attach to a :class:`~repro.netsim.switch_node.SwitchNode`.

        The per-switch salt decorrelates "random" candidate sampling across
        switches the same way the ECMP hash salt does (CRC32 of the name:
        stable across processes, unlike ``hash(str)``).
        """
        self.node = node
        self._salt = switch_salt(node.name)

    # -- shared state readers ------------------------------------------
    def _backlog(self, port_id: int) -> int:
        """The local congestion signal: queued bytes on ``port_id``."""
        return self.node.switch.port(port_id).backlog_bytes()

    def _record(self, key: FlowKey, port: int) -> int:
        """Count one choice (decisions, reroutes, per-port) and return it."""
        self.decisions += 1
        self.port_packets[port] = self.port_packets.get(port, 0) + 1
        prev = self._last_port.get(key)
        if prev is None:
            self._last_port[key] = port
        elif prev != port:
            self.reroutes += 1
            self._last_port[key] = port
        return port

    # -- the decision --------------------------------------------------
    def choose(self, packet: Packet, candidates: Sequence[int]) -> int:
        """Pick an egress port for ``packet`` among >= 2 ``candidates``.

        ``candidates`` is the routing table's surviving member list (failed
        and per-destination-excluded uplinks already removed), in stable
        registration order.  Treat it as read-only -- it may be a memoized
        list shared with the routing table.
        """
        raise NotImplementedError


class EcmpPassthrough(LoadBalancer):
    """The default: keep the static flow-hash ECMP data path untouched.

    Binding a passthrough is a no-op on the node (no method swap, no
    ``node.lb``), so an explicit ``lb: ecmp`` scenario runs byte-identically
    to one with the section omitted -- and the per-packet path is exactly
    the pre-LB direct ``routing.route`` call.
    """

    name = "ecmp"
    passthrough = True

    def choose(self, packet: Packet, candidates: Sequence[int]) -> int:
        raise RuntimeError(
            "EcmpPassthrough never chooses: the switch keeps its direct "
            "ECMP hash path (set_load_balancer does not swap deliver)")


class FlowletBalancer(LoadBalancer):
    """Flowlet switching: re-pick the least-backlogged uplink at idle gaps.

    Packets of a flow reuse the cached port while they arrive within
    ``gap`` seconds of the previous one (no reordering inside a burst); a
    longer pause starts a new flowlet, re-chosen as the candidate with the
    smallest local backlog.  Ties -- the common case on an uncongested
    switch, where every backlog reads 0 -- break by a deterministic hash
    over the flowlet counter, not by port id: a fixed tie-break would herd
    every new flowlet onto the same uplink and *concentrate* load exactly
    when the congestion signal is silent.  A cached port that left the
    candidate set (its link failed) is dropped immediately -- rerouting
    around failures without waiting for the gap.
    """

    name = "flowlet"

    def __init__(self, gap: float = 100e-6) -> None:
        super().__init__()
        if not gap > 0:
            raise ValueError(f"flowlet gap must be positive, got {gap!r}")
        self.gap = float(gap)
        #: flow key -> [port, last packet time] (a list: updated in place).
        self._table: Dict[FlowKey, List[float]] = {}

    def choose(self, packet: Packet, candidates: Sequence[int]) -> int:
        key = (packet.flow_id, packet.dst)
        now = self.node.sim.now
        entry = self._table.get(key)
        if (entry is not None and now - entry[1] <= self.gap
                and entry[0] in candidates):
            entry[1] = now
            return self._record(key, entry[0])
        n = self.flowlets
        port = min(candidates,
                   key=lambda p: (self._backlog(p), _mix(n, self._salt, p)))
        self.flowlets += 1
        self._table[key] = [port, now]
        return self._record(key, port)
