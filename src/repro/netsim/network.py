"""The network: hosts, switch nodes, links, workload injection and metrics.

Besides wiring, :class:`Network` is the home of the *fabric model*: every
link pair created through :meth:`connect_host_to_switch` /
:meth:`connect_switches` is registered by endpoint names (``h3``,
``leaf0``, ``agg0_1``, ...), so failures and degradations can be injected
declaratively after construction:

* :meth:`fail_link` marks both directions of a link as failed, removes the
  affected uplinks from ECMP, and prunes every routing table so no candidate
  path crosses the failed link (a generic reachability pass, not
  topology-specific rules);
* :meth:`degrade_link` scales a link pair's capacity, retunes the sender-side
  serializers (egress port / host NIC), and reweights ECMP so flows spread
  proportionally to surviving capacity;
* :meth:`refresh_ecmp_weights` derives every uplink's ECMP weight from its
  link's effective rate (capacity-weighted multipath).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.metrics.flows import FlowRecord, FlowStats
from repro.netsim.host import Host
from repro.netsim.link import Link, LinkSpec
from repro.netsim.switch_node import SwitchNode
from repro.netsim.transport.base import ReceiverState, TransportConfig
from repro.netsim.transport.factory import make_transport
from repro.sim.engine import Simulator
from repro.workloads.spec import FlowSpec

#: A link endpoint pair by node names, e.g. ``("agg0_0", "core1")``.
Endpoints = Tuple[str, str]


def host_node_name(host_id: int) -> str:
    """The fabric-model name of a host endpoint (``h<id>``)."""
    return f"h{host_id}"


@dataclass
class FabricLink:
    """One *direction* of a registered link: the wire plus its sender side.

    Attributes:
        link: the unidirectional :class:`Link`.
        src_name / dst_name: endpoint names (hosts are ``h<id>``).
        src: the sending object -- a :class:`Host` or :class:`SwitchNode`.
        src_port: the sender's egress port id (``None`` for hosts).
    """

    link: Link
    src_name: str
    dst_name: str
    src: object
    src_port: Optional[int]


class Network:
    """A complete simulated network.

    Typical usage (usually via the :mod:`repro.topology` builders)::

        sim = Simulator()
        net = Network(sim, bottleneck_bps=10e9, base_rtt=40e-6)
        h0 = net.add_host(0, nic_rate_bps=10e9)
        ...
        net.inject_flows(flows, transport="dctcp")
        net.run(until=0.1)
        print(net.flow_stats.average_qct())
    """

    def __init__(self, sim: Simulator, bottleneck_bps: float, base_rtt: float) -> None:
        if not bottleneck_bps > 0:
            raise ValueError(
                f"bottleneck_bps must be positive, got {bottleneck_bps!r}")
        if base_rtt < 0:
            raise ValueError(f"base_rtt cannot be negative, got {base_rtt!r}")
        self.sim = sim
        self.hosts: Dict[int, Host] = {}
        self.switch_nodes: Dict[str, SwitchNode] = {}
        self.flow_stats = FlowStats(bottleneck_bps=bottleneck_bps, base_rtt=base_rtt)
        self._transport_config = TransportConfig()
        #: Flow specs injected so far, for introspection and experiments.
        self.injected_flows: List[FlowSpec] = []
        #: Every link direction keyed by (src_name, dst_name).
        self.links: Dict[Endpoints, FabricLink] = {}
        #: Failed link pairs, in injection order (diagnostics, result docs).
        self.failed_links: List[Endpoints] = []

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_host(self, host_id: int, nic_rate_bps: float) -> Host:
        if host_id in self.hosts:
            raise ValueError(f"host {host_id} already exists")
        if not nic_rate_bps > 0:
            raise ValueError(
                f"host {host_id}: nic_rate_bps must be positive, "
                f"got {nic_rate_bps!r}")
        host = Host(host_id, self.sim, nic_rate_bps)
        self.hosts[host_id] = host
        return host

    def add_switch(self, node: SwitchNode) -> SwitchNode:
        if node.name in self.switch_nodes:
            raise ValueError(f"switch {node.name} already exists")
        self.switch_nodes[node.name] = node
        return node

    def _register_link(self, link: Link, src_name: str, dst_name: str,
                       src: object, src_port: Optional[int]) -> None:
        key = (src_name, dst_name)
        if key in self.links:
            raise ValueError(f"link {src_name}->{dst_name} already exists")
        self.links[key] = FabricLink(link=link, src_name=src_name,
                                     dst_name=dst_name, src=src,
                                     src_port=src_port)

    @staticmethod
    def _link_spec(delay: Optional[float], spec: Optional[LinkSpec],
                   where: str) -> LinkSpec:
        """Resolve the ``delay`` / ``spec`` pair of the connect helpers.

        Exactly one of the two may be given: a bare ``delay`` builds a
        legacy rate-less link, a ``spec`` carries the full identity.  Both
        at once is rejected -- silently preferring one would drop the other.
        """
        if spec is not None:
            if delay is not None:
                raise ValueError(
                    f"{where}: pass either delay= or spec= (the spec "
                    "carries its own delay), not both")
            return spec
        return LinkSpec(delay=delay if delay is not None else 0.0)

    def connect_host_to_switch(self, host: Host, switch: SwitchNode, port_id: int,
                               delay: Optional[float] = None,
                               spec: Optional[LinkSpec] = None) -> None:
        """Create the host<->switch link pair and register the direct route.

        ``spec`` gives the pair a rate identity (both directions share it);
        without one, the legacy model applies: the link only adds ``delay``
        and serialization happens at the sender's configured rate.
        """
        spec = self._link_spec(delay, spec, "connect_host_to_switch")
        hname = host_node_name(host.host_id)
        up = Link.from_spec(self.sim, switch, spec,
                            name=f"{hname}->{switch.name}")
        down = Link.from_spec(self.sim, host, spec,
                              name=f"{switch.name}->{hname}")
        host.attach_link(up)
        switch.connect(port_id, down)
        switch.routing.add_host_route(host.host_id, port_id)
        self._register_link(up, hname, switch.name, host, None)
        self._register_link(down, switch.name, hname, switch, port_id)

    def connect_switches(self, a: SwitchNode, port_a: int, b: SwitchNode, port_b: int,
                         delay: Optional[float] = None,
                         spec: Optional[LinkSpec] = None) -> None:
        """Create a bidirectional switch-to-switch link pair."""
        spec = self._link_spec(delay, spec, "connect_switches")
        a_to_b = Link.from_spec(self.sim, b, spec, name=f"{a.name}->{b.name}")
        b_to_a = Link.from_spec(self.sim, a, spec, name=f"{b.name}->{a.name}")
        a.connect(port_a, a_to_b)
        b.connect(port_b, b_to_a)
        self._register_link(a_to_b, a.name, b.name, a, port_a)
        self._register_link(b_to_a, b.name, a.name, b, port_b)

    def assign_event_priorities(self) -> None:
        """Give every link's arrival events a stable same-timestamp priority.

        Priorities are assigned from the *sorted* ``(src, dst)`` link list,
        so they depend only on the fabric's shape -- any process that builds
        the same topology derives the same priorities.  With them in place,
        two packets arriving anywhere in the fabric at the same instant are
        ordered by which wire they came in on rather than by when their
        arrival events happened to be scheduled; that keeps equal-timestamp
        ordering locally computable, which is what lets the sharded engine
        (:mod:`repro.sim.shard`) interleave cross-shard arrivals
        byte-identically to the single-process oracle.  Called once per
        scenario by the topology builder seam (``make_topology``); networks
        built directly keep the plain FIFO tie-break (priority 0).
        """
        for index, (_key, fabric) in enumerate(sorted(self.links.items())):
            fabric.link.event_priority = index + 1

    # ------------------------------------------------------------------
    # Fabric model: failures, degradation, capacity-weighted ECMP
    # ------------------------------------------------------------------
    def _link_pair(self, a: str, b: str) -> Tuple[FabricLink, FabricLink]:
        """Both directions of the link between named endpoints ``a`` and ``b``."""
        forward = self.links.get((a, b))
        backward = self.links.get((b, a))
        if forward is None or backward is None:
            known = sorted({name for pair in self.links for name in pair})
            raise ValueError(
                f"no link between {a!r} and {b!r}; known endpoints: "
                + ", ".join(known))
        return forward, backward

    def link_pair(self, a: str, b: str) -> Tuple[FabricLink, FabricLink]:
        """Public endpoint resolution (validation tooling); raises unknowns."""
        return self._link_pair(a, b)

    def check_fabric_event(self, event: Mapping[str, object]) -> None:
        """Statically resolve one fabric-timeline event against this network.

        Catches at setup time what would otherwise fail mid-simulation:
        unknown endpoint names, failing a host link (partition), and
        degrading a link without a rate identity.  Event *sequencing*
        (repair-before-fail, sorted timestamps) is already enforced by
        :meth:`~repro.scenario.spec.FabricSpec.validate`.
        """
        a, b = event["link"]
        forward, backward = self._link_pair(a, b)
        if event["action"] == "fail":
            if isinstance(forward.src, Host) or isinstance(backward.src, Host):
                raise ValueError(
                    f"fabric.events cannot fail host link {a!r}<->{b!r}: it "
                    "would partition the host (degrade it instead)")
        elif event["action"] == "degrade":
            if forward.link.rate_bps is None:
                raise ValueError(
                    f"fabric.events cannot degrade {a!r}<->{b!r}: the link "
                    "has no rate identity (build the topology with per-link "
                    "rates)")

    def fail_link(self, a: str, b: str, prune: bool = True) -> None:
        """Fail both directions of the ``a <-> b`` link.

        Host links cannot be failed (that would partition the host -- reject
        loudly instead of blackholing its traffic).  After marking the pair,
        the affected uplinks leave every ECMP candidate set and, unless
        ``prune`` is False (batch injection), routing tables are re-pruned so
        no surviving candidate path crosses a failed link.
        """
        forward, backward = self._link_pair(a, b)
        if isinstance(forward.src, Host) or isinstance(backward.src, Host):
            raise ValueError(
                f"cannot fail host link {a!r}<->{b!r}: it would partition "
                "the host (degrade it instead)")
        for direction in (forward, backward):
            direction.link.set_failed()
            node = direction.src
            if isinstance(node, SwitchNode) and direction.src_port is not None:
                if direction.src_port in node.routing.uplinks:
                    node.routing.disable_uplink(direction.src_port)
        self.failed_links.append((a, b))
        if prune:
            self.prune_failed_routes()

    def repair_link(self, a: str, b: str) -> None:
        """Repair a previously failed ``a <-> b`` link pair (mid-run safe).

        Both directions restore their healthy ``transmit`` (the
        ``Link.set_failed(False)`` method-swap restore), the affected
        uplinks rejoin every ECMP candidate set, and routing health is
        recomputed from scratch: per-destination exclusions encode
        reachability under the *old* failure set, so they are cleared on
        every table and re-derived against the remaining failures.  Flows
        hashed onto the restored members start carrying traffic on the next
        packet (the ECMP memo was invalidated with the membership change).
        """
        for key in ((a, b), (b, a)):
            if key in self.failed_links:
                self.failed_links.remove(key)
                break
        else:
            raise ValueError(
                f"link {a!r}<->{b!r} is not failed (failed links: "
                f"{self.failed_links!r}); repair only follows fail")
        forward, backward = self._link_pair(a, b)
        for direction in (forward, backward):
            direction.link.set_failed(False)
            node = direction.src
            if isinstance(node, SwitchNode) and direction.src_port is not None:
                if direction.src_port in node.routing.uplinks:
                    node.routing.enable_uplink(direction.src_port)
        for node in self.switch_nodes.values():
            node.routing.clear_exclusions()
        self.prune_failed_routes()

    def degrade_link(self, a: str, b: str, factor: float) -> None:
        """Scale both directions of the ``a <-> b`` link to ``factor`` capacity.

        Retunes the sender-side serializers (egress port or host NIC) and the
        ECMP weight of any uplink feeding the degraded pair, so flows spread
        proportionally to the surviving capacity.
        """
        if not 0 < factor <= 1:
            raise ValueError(
                f"degradation factor must be in (0, 1], got {factor!r}")
        forward, backward = self._link_pair(a, b)
        for direction in (forward, backward):
            link = direction.link
            if link.rate_bps is None:
                raise ValueError(
                    f"link {direction.src_name}->{direction.dst_name} has no "
                    "rate identity; build the topology with per-link rates "
                    "(LinkSpec) before degrading links")
            link.degraded_factor *= factor
            effective = link.effective_rate_bps
            node = direction.src
            if isinstance(node, SwitchNode):
                assert direction.src_port is not None
                node.switch.set_port_rate(direction.src_port, effective)
                if direction.src_port in node.routing.uplinks:
                    node.routing.set_uplink_weight(direction.src_port, effective)
            elif isinstance(node, Host):
                node.nic_rate_bps = effective

    def refresh_ecmp_weights(self) -> None:
        """Weight every ECMP uplink by its link's effective rate.

        With symmetric rates every weight is equal and member selection is
        byte-identical to unweighted ECMP; with per-tier or degraded rates,
        flows spread proportionally to capacity (WCMP).
        """
        for node in self.switch_nodes.values():
            for port_id in node.routing.uplinks:
                link = node.link_for(port_id)
                if link is None:
                    continue
                rate = link.effective_rate_bps
                if rate is not None:
                    node.routing.set_uplink_weight(port_id, rate)

    def apply_fabric(self, failures: Optional[Iterable[Sequence[str]]] = None,
                     degraded: Optional[Iterable[Sequence[object]]] = None) -> None:
        """Inject a batch of link failures and degradations.

        ``failures`` is an iterable of ``(a, b)`` endpoint-name pairs;
        ``degraded`` of ``(a, b, factor)`` triples.  Degradations apply
        first (they reweight ECMP), then failures, then one routing prune
        pass covering all of them.
        """
        for entry in degraded or []:
            if len(entry) != 3:
                raise ValueError(
                    f"degraded entry must be [src, dst, factor], got {entry!r}")
            a, b, factor = entry
            self.degrade_link(str(a), str(b), float(factor))
        failure_list = list(failures or [])
        for entry in failure_list:
            if len(entry) != 2:
                raise ValueError(
                    f"failure entry must be [src, dst], got {entry!r}")
            a, b = entry
            self.fail_link(str(a), str(b), prune=False)
        if failure_list:
            self.prune_failed_routes()

    # -- failure-aware route pruning -----------------------------------
    def _viability(self, dst: int) -> Dict[str, bool]:
        """Which switches can still deliver to host ``dst``.

        A least fixed point over the candidate graph: a switch is viable
        iff some candidate port crosses a healthy link to the destination
        host or to a viable switch.  Monotone (viability only ever flips
        False -> True) so the iteration provably terminates, and -- unlike
        a memoized DFS with a cycle cut-off -- it is correct on cyclic
        candidate graphs too.  Exclusions already registered only remove
        dead branches, so they cannot change the result.
        """
        viable: Dict[str, bool] = {}
        changed = True
        while changed:
            changed = False
            for name, node in self.switch_nodes.items():
                if viable.get(name):
                    continue
                try:
                    candidates = node.routing.candidate_ports(dst)
                except LookupError:
                    continue  # every member already failed/excluded
                for port in candidates:
                    link = node.link_for(port)
                    if link is None or link.failed:
                        continue
                    nxt = link.dst_node
                    if not hasattr(nxt, "routing"):
                        ok = getattr(nxt, "host_id", None) == dst
                    else:
                        ok = viable.get(nxt.name, False)
                    if ok:
                        viable[name] = True
                        changed = True
                        break
        return viable

    def prune_failed_routes(self) -> None:
        """Remove every routing candidate whose subtree crosses a failed link.

        A generic reachability pass over the fabric: for every (switch,
        destination host) pair, an uplink stays a candidate only if the node
        behind it can still reach the destination without traversing a
        failed link.  Works for any topology built through the connect
        helpers (including cyclic candidate graphs); raises ``ValueError``
        if a destination becomes unreachable from some host's access switch
        (the failure partitions the fabric).
        """
        if not self.failed_links:
            return
        for dst in self.hosts:
            viable = self._viability(dst)
            for node in self.switch_nodes.values():
                routing = node.routing
                uplinks = set(routing.uplinks) - set(routing.disabled_uplinks)
                if not uplinks:
                    continue
                try:
                    candidates = routing.candidate_ports(dst)
                except LookupError:
                    continue  # already fully pruned; upstream handles it
                for port in candidates:
                    if port not in uplinks:
                        continue  # host routes are pruned via upstream
                    link = node.link_for(port)
                    if link is None:
                        continue
                    nxt = link.dst_node
                    dead = link.failed or (
                        hasattr(nxt, "routing")
                        and not viable.get(nxt.name, False))
                    if dead:
                        routing.exclude_uplink_for(port, dst)
            # Every host must still be reachable from every *other* host's
            # access switch; otherwise the failure partitions the fabric.
            # (Re-derived after pruning: exclusions only removed dead
            # branches, so the map is unchanged and can be reused.)
            for src, src_host in self.hosts.items():
                if src == dst or src_host.link is None:
                    continue
                access = src_host.link.dst_node
                if not hasattr(access, "routing"):
                    continue
                if not viable.get(access.name, False):
                    raise ValueError(
                        f"link failures {self.failed_links} disconnect host "
                        f"{dst} from {access.name}; a fabric must stay "
                        "connected (fail fewer links)")

    # ------------------------------------------------------------------
    # Workload injection
    # ------------------------------------------------------------------
    def set_transport_config(self, config: TransportConfig) -> None:
        self._transport_config = config

    @property
    def transport_config(self) -> TransportConfig:
        return self._transport_config

    def inject_flows(self, flows: Iterable[FlowSpec], transport: str = "dctcp",
                     transport_config: Optional[TransportConfig] = None) -> None:
        """Register flows: each starts (sender + receiver) at its start time."""
        config = transport_config or self._transport_config
        sender_cls = make_transport(transport)
        for spec in flows:
            self.register_flow(spec)
            self.sim.at(
                spec.start_time,
                lambda s=spec, cls=sender_cls, cfg=config: self._start_flow(s, cls, cfg),
            )

    def register_flow(self, spec: FlowSpec) -> None:
        """Record ``spec`` as injected, with its ``FlowStats`` record, without
        scheduling its start (the sharded executor starts flows itself)."""
        if spec.flow_id is None:
            raise ValueError(
                f"flow {spec.src}->{spec.dst} has no flow_id; number the "
                "flows first (repro.workloads.number_flows)")
        if spec.src not in self.hosts or spec.dst not in self.hosts:
            raise ValueError(
                f"flow {spec.flow_id} references unknown hosts "
                f"{spec.src}->{spec.dst}"
            )
        self.injected_flows.append(spec)
        self.flow_stats.register_flow(
            FlowRecord(
                flow_id=spec.flow_id,
                src=spec.src,
                dst=spec.dst,
                size_bytes=spec.size_bytes,
                start_time=spec.start_time,
                query_id=spec.query_id,
                priority=spec.priority,
            )
        )

    def _start_flow(self, spec: FlowSpec, sender_cls, config: TransportConfig) -> None:
        src_host = self.hosts[spec.src]
        dst_host = self.hosts[spec.dst]
        receiver = ReceiverState(spec, config, on_complete=self._flow_completed)
        dst_host.add_receiver(receiver)
        sender = sender_cls(src_host, spec, config)
        src_host.add_sender(sender)
        sender.start()

    def _flow_completed(self, flow_id: int, now: float) -> None:
        self.flow_stats.flow_finished(flow_id, now)

    # ------------------------------------------------------------------
    # Execution and reporting
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation until ``until`` (or until the event queue drains)."""
        return self.sim.run(until=until, max_events=max_events)

    def total_timeouts(self) -> int:
        count = 0
        for host in self.hosts.values():
            for sender in host.senders.values():
                count += sender.timeouts
        return count

    def link_between(self, a: Union[str, int], b: Union[str, int]) -> Link:
        """The ``a -> b`` direction of a registered link (names or host ids)."""
        a_name = host_node_name(a) if isinstance(a, int) else a
        b_name = host_node_name(b) if isinstance(b, int) else b
        record = self.links.get((a_name, b_name))
        if record is None:
            raise KeyError(f"no link {a_name}->{b_name}")
        return record.link
