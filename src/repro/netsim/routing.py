"""Routing tables for switch nodes, including ECMP over uplinks.

Besides the per-switch :class:`EcmpRoutingTable`, this module provides the
fabric-level helpers multi-stage topologies (leaf-spine, fat-tree) build on:

* :func:`trace_path` -- the concrete switch path one flow's packets take,
  resolved hop by hop through the same hash the data path uses;
* :class:`PathEnumerator` -- every ECMP-eligible path between two hosts,
  memoized per (switch, destination) subproblem so enumerating all paths of
  a k-ary fat-tree costs one DFS per distinct suffix instead of one per
  source.

The table understands asymmetric fabrics: every uplink carries a *capacity
weight* (flows spread proportionally to it -- WCMP-style member selection),
an uplink can be *disabled* outright (its link failed), and an uplink can be
*excluded for specific destination hosts* (it is alive, but the only way from
its far end to those hosts crosses a failed link).  With default weights and
no failures every code path degenerates to the classic uniform ECMP hash, so
symmetric fabrics behave byte-identically to the pre-fabric-model code.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.switchsim.packet import Packet

#: Cap on the per-member slots of the weighted selection vector, bounding its
#: size for extreme capacity ratios (a 100:1 link pair still yields 64:1).
MAX_WEIGHT_SLOTS = 64


def _mix(a: int, b: int, c: int) -> int:
    """A small deterministic integer hash (stable across runs/processes)."""
    h = (a * 0x9E3779B1) ^ (b * 0x85EBCA77) ^ (c * 0xC2B2AE3D)
    h ^= h >> 13
    h *= 0x27D4EB2F
    h &= 0xFFFFFFFF
    h ^= h >> 16
    return h


def switch_salt(name: str) -> int:
    """A deterministic 32-bit ECMP salt for the switch called ``name``.

    CRC32 of the name bytes: stable across processes and Python versions
    (unlike ``hash(str)``), so salted path choices stay byte-identical
    between a serial run and ``--jobs N`` workers.
    """
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class EcmpRoutingTable:
    """Destination-host routing with ECMP spreading over uplink ports.

    Routes are looked up in two steps: an exact per-destination-host entry
    (downlinks / locally attached hosts), falling back to an ECMP hash over
    the registered uplink ports.  The hash covers (src, dst, flow id) so all
    packets of one flow take the same path -- no reordering due to routing.

    ``salt`` perturbs the hash per switch.  With the default of 0 every
    table hashes identically, which is fine for single-ECMP-stage fabrics
    (leaf-spine) but polarizes multi-stage ones: when consecutive stages
    have the same fan-out, every switch of stage N+1 repeats stage N's
    choice and most equal-cost paths never carry traffic.  Multi-stage
    topologies must give each switch a distinct deterministic salt (see
    :func:`switch_salt`).
    """

    def __init__(self, salt: int = 0) -> None:
        self._salt = salt & 0xFFFFFFFF
        self._host_routes: Dict[int, int] = {}
        self._uplinks: List[int] = []
        #: Capacity weight per uplink port (absent = 1.0).  Flows spread
        #: proportionally: a port with twice the weight receives ~twice the
        #: flows (WCMP member replication).
        self._weights: Dict[int, float] = {}
        #: Uplinks whose link failed outright: never candidates, for any dst.
        self._disabled: Set[int] = set()
        #: Per-destination exclusions: dst host -> ports that must not be
        #: used towards it (the far end cannot reach the dst without
        #: crossing a failed link).
        self._excluded: Dict[int, Set[int]] = {}
        #: Memoized ECMP picks keyed by (src, dst, flow_id).  The hash is a
        #: pure function of that key and the uplink list, so per-flow lookups
        #: replace recomputing the mix for every packet; any topology change
        #: invalidates the cache.
        self._ecmp_cache: Dict[tuple, int] = {}
        #: Memoized selection vectors: ``None`` key = the dst-independent
        #: vector, int keys = per-destination vectors for excluded dsts.
        self._selections: Dict[Optional[int], List[int]] = {}
        #: Memoized surviving-member lists, keyed like ``_selections``.
        #: Load balancers resolve candidates per packet, so the list must
        #: not be rebuilt per call; callers treat it as read-only.
        self._candidates: Dict[Optional[int], List[int]] = {}

    # -- mutation ------------------------------------------------------
    def _invalidate(self) -> None:
        self._ecmp_cache.clear()
        self._selections.clear()
        self._candidates.clear()

    def add_host_route(self, dst_host: int, port_id: int) -> None:
        """Send traffic for ``dst_host`` out of ``port_id``."""
        self._host_routes[dst_host] = port_id
        self._invalidate()

    def add_uplink(self, port_id: int) -> None:
        """Register an uplink port participating in ECMP."""
        if port_id not in self._uplinks:
            self._uplinks.append(port_id)
            self._invalidate()

    def add_uplinks(self, port_ids) -> None:
        for port_id in port_ids:
            self.add_uplink(port_id)

    def set_uplink_weight(self, port_id: int, weight: float) -> None:
        """Set the capacity weight of an uplink (flows spread ~ weight)."""
        if not weight > 0:
            raise ValueError(f"uplink weight must be positive, got {weight!r}")
        if port_id not in self._uplinks:
            raise ValueError(f"port {port_id} is not a registered uplink")
        self._weights[port_id] = weight
        self._invalidate()

    def disable_uplink(self, port_id: int) -> None:
        """Remove an uplink from every candidate set (its link failed)."""
        if port_id not in self._uplinks:
            raise ValueError(f"port {port_id} is not a registered uplink")
        self._disabled.add(port_id)
        self._invalidate()

    def enable_uplink(self, port_id: int) -> None:
        """Re-admit a previously disabled uplink (its link was repaired)."""
        if port_id not in self._uplinks:
            raise ValueError(f"port {port_id} is not a registered uplink")
        if port_id in self._disabled:
            self._disabled.discard(port_id)
            self._invalidate()

    def clear_exclusions(self) -> None:
        """Drop every per-destination exclusion (re-derived after repairs).

        Exclusions encode reachability under a *specific* failure set; a
        repair can only widen reachability, so the sound refresh is to clear
        them all and re-run :meth:`~repro.netsim.network.Network.
        prune_failed_routes` against the remaining failures.
        """
        if self._excluded:
            self._excluded.clear()
            self._invalidate()

    def exclude_uplink_for(self, port_id: int, dst_host: int) -> None:
        """Exclude ``port_id`` for traffic towards ``dst_host`` only."""
        if port_id not in self._uplinks:
            raise ValueError(f"port {port_id} is not a registered uplink")
        self._excluded.setdefault(dst_host, set()).add(port_id)
        self._invalidate()

    def set_salt(self, salt: int) -> None:
        """Set the per-switch hash salt (invalidates memoized picks)."""
        self._salt = salt & 0xFFFFFFFF
        self._invalidate()

    @property
    def uplinks(self) -> List[int]:
        return list(self._uplinks)

    @property
    def disabled_uplinks(self) -> List[int]:
        return sorted(self._disabled)

    # -- selection -----------------------------------------------------
    def _surviving_members(self, dst: int) -> List[int]:
        """Uplinks still eligible towards ``dst`` (not failed, not excluded).

        The single place routing and path enumeration agree on which ECMP
        members survive; raises when the destination has none left.
        """
        excluded = self._excluded.get(dst)
        members = [p for p in self._uplinks if p not in self._disabled
                   and (excluded is None or p not in excluded)]
        if not members:
            raise LookupError(
                f"no surviving uplink towards host {dst}: all of "
                f"{self._uplinks} are failed or excluded")
        return members

    def _selection_for(self, dst: int) -> List[int]:
        """The weighted member-selection vector for traffic towards ``dst``.

        With uniform weights and no failures this is exactly the uplink list
        (so ``hash % len`` reproduces the classic ECMP pick); otherwise each
        eligible port appears ``round(weight / min_weight)`` times, spreading
        flows proportionally to capacity.
        """
        key = dst if dst in self._excluded else None
        selection = self._selections.get(key)
        if selection is not None:
            return selection
        members = self._surviving_members(dst)
        weights = [self._weights.get(p, 1.0) for p in members]
        min_weight = min(weights)
        selection = []
        for port, weight in zip(members, weights, strict=True):
            slots = round(weight / min_weight)
            selection.extend([port] * min(MAX_WEIGHT_SLOTS, max(1, slots)))
        self._selections[key] = selection
        return selection

    # -- lookup --------------------------------------------------------
    def route(self, packet: Packet) -> int:
        """Return the egress port for ``packet``."""
        return self.egress_for(packet.src, packet.dst, packet.flow_id)

    def egress_for(self, src: int, dst: int, flow_id: int) -> int:
        """The egress port for flow ``flow_id``'s packets towards ``dst``.

        The single ECMP resolution point: the data path (:meth:`route`) and
        the path-introspection helpers below all go through it and share one
        memo, so a traced path is exactly the one the packets take.
        """
        port = self._host_routes.get(dst)
        if port is not None:
            return port
        key = (src, dst, flow_id)
        port = self._ecmp_cache.get(key)
        if port is None:
            if not self._uplinks:
                raise LookupError(
                    f"no route for destination host {dst} "
                    "and no uplinks configured"
                )
            selection = self._selection_for(dst)
            index = _mix(src ^ self._salt, dst, flow_id) % len(selection)
            port = selection[index]
            self._ecmp_cache[key] = port
        return port

    def candidate_ports(self, dst: int) -> List[int]:
        """Every port a packet towards ``dst`` may leave through.

        One port for an exact host route, otherwise the surviving uplinks
        (the ECMP spread minus failed/excluded members).  This is the
        branching set path enumeration walks (so enumerated paths provably
        avoid failed links) and the candidate set load balancers choose
        from per packet -- hence the member list is memoized like the
        selection vectors; treat the returned list as read-only.
        """
        port = self._host_routes.get(dst)
        if port is not None:
            members = self._candidates.get(dst)
            if members is None:
                members = [port]
                self._candidates[dst] = members
            return members
        if not self._uplinks:
            raise LookupError(
                f"no route for destination host {dst} and no uplinks configured"
            )
        key = dst if dst in self._excluded else None
        members = self._candidates.get(key)
        if members is None:
            members = self._surviving_members(dst)
            self._candidates[key] = members
        return members


def _next_node(node, port: int):
    """The node behind ``port`` of ``node`` (switch or host), or an error."""
    link = node.link_for(port)
    if link is None:
        raise LookupError(f"switch {node.name} port {port} has no attached link")
    return link.dst_node


def trace_path(node, src: int, dst: int, flow_id: int,
               max_hops: int = 32) -> Tuple[str, ...]:
    """The switch names flow ``flow_id`` traverses from ``node`` to ``dst``.

    Walks the routing tables hop by hop with the same (src, dst, flow_id)
    hash the data path uses, so the returned path is exactly the one the
    flow's packets take.  Raises ``LookupError`` on a routing loop or a
    misdelivery (arriving at a host other than ``dst``).
    """
    path: List[str] = []
    current = node
    for _ in range(max_hops):
        path.append(current.name)
        port = current.routing.egress_for(src, dst, flow_id)
        nxt = _next_node(current, port)
        if not hasattr(nxt, "routing"):  # reached a host NIC
            if getattr(nxt, "host_id", dst) != dst:
                raise LookupError(
                    f"flow {flow_id} towards host {dst} was delivered to "
                    f"host {nxt.host_id} via {current.name} port {port}"
                )
            return tuple(path)
        current = nxt
    raise LookupError(
        f"no path to host {dst} within {max_hops} hops (routing loop?): "
        + " -> ".join(path)
    )


class PathEnumerator:
    """Enumerates every ECMP-eligible switch path towards a destination host.

    The DFS branches over :meth:`EcmpRoutingTable.candidate_ports` at each
    stage and memoizes the suffix set per (switch, destination): on a k-ary
    fat-tree every edge switch of a pod shares its aggregation switches'
    (and their cores') suffixes, so enumerating all ``(k/2)^2`` inter-pod
    paths costs one walk over the fabric instead of one DFS per source.
    A topology change (including failure injection) invalidates the
    enumerator -- build a fresh one.
    """

    def __init__(self, max_hops: int = 32) -> None:
        self.max_hops = max_hops
        self._memo: Dict[Tuple[int, int], Tuple[Tuple[str, ...], ...]] = {}

    def paths(self, node, dst: int) -> List[Tuple[str, ...]]:
        """All switch-name paths from ``node`` to host ``dst``, sorted."""
        return sorted(self._paths(node, dst, self.max_hops))

    def _paths(self, node, dst: int,
               budget: int) -> Tuple[Tuple[str, ...], ...]:
        if budget <= 0:
            raise LookupError(
                f"no path to host {dst} within {self.max_hops} hops "
                f"(routing loop through {node.name}?)"
            )
        key = (id(node), dst)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        found: List[Tuple[str, ...]] = []
        for port in node.routing.candidate_ports(dst):
            nxt = _next_node(node, port)
            if not hasattr(nxt, "routing"):
                if getattr(nxt, "host_id", dst) == dst:
                    found.append((node.name,))
                continue
            for suffix in self._paths(nxt, dst, budget - 1):
                found.append((node.name,) + suffix)
        if not found:
            raise LookupError(f"switch {node.name} has no path to host {dst}")
        result = tuple(found)
        self._memo[key] = result
        return result
