"""A k-ary fat-tree fabric (Al-Fares et al., SIGCOMM 2008 numbering).

The first topology in the zoo with more than two switch stages: ``k`` pods,
each with ``k/2`` edge and ``k/2`` aggregation switches, plus ``(k/2)^2``
core switches.  Packets between pods take ``host -> edge -> agg -> core ->
agg -> edge -> host`` paths; ECMP spreads flows over the ``k/2`` aggregation
uplinks at the edge stage and the ``k/2`` core uplinks at the aggregation
stage, giving ``(k/2)^2`` equal-cost paths between hosts in different pods.

In the canonical fat-tree each edge switch serves ``k/2`` hosts (full
bisection bandwidth).  The ``oversubscription`` knob scales that host count:
``oversubscription=2.0`` doubles the hosts per edge switch, producing a 2:1
oversubscribed fabric like most production deployments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.base import BufferManager
from repro.netsim.link import LinkSpec
from repro.netsim.network import Network
from repro.netsim.routing import PathEnumerator, switch_salt, trace_path
from repro.netsim.switch_node import SwitchNode
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB
from repro.switchsim.switch import SwitchConfig
from repro.topology._tiers import require_positive, resolve_tier_rates


class FatTreeTopology:
    """Builds a k-ary fat-tree with multi-stage ECMP routing.

    Numbering: pods are ``0..k-1``; edge switch ``e`` of pod ``p`` has the
    global edge index ``p * (k/2) + e`` and serves hosts ``edge_index *
    hosts_per_edge .. edge_index * hosts_per_edge + hosts_per_edge - 1``.
    Edge ports ``0..hosts_per_edge-1`` face the hosts, ports
    ``hosts_per_edge..hosts_per_edge+k/2-1`` face the pod's aggregation
    switches.  Aggregation switch ``a`` of a pod uses ports ``0..k/2-1``
    towards its edges and ports ``k/2..k-1`` towards cores ``a*(k/2)+j``.
    Core switch port ``p`` faces pod ``p``.

    Args:
        k: fabric arity; must be even and at least 2.  The fabric has
            ``k`` pods, ``k^2/2 + (k/2)^2`` switches in total.
        manager_factory: callable returning a fresh buffer manager; called
            once per switch.
        hosts_per_edge: hosts attached to each edge switch.  Defaults to
            ``k/2 * oversubscription`` (``k/2`` = the canonical
            full-bisection fat-tree).
        oversubscription: edge-stage oversubscription ratio used to derive
            the default ``hosts_per_edge``; ignored when ``hosts_per_edge``
            is given explicitly.
        link_rate_bps: nominal rate of all links (hosts and fabric); the
            per-tier overrides below refine it.
        tier_rates: per-tier link-rate overrides: ``host`` (host<->edge),
            ``agg`` (edge<->agg), ``core`` (agg<->core).  Every link carries
            its tier's rate as its identity, egress ports serialize at it,
            and ECMP weights members by effective capacity.
        failures: link-failure injection: ``[a, b]`` endpoint-name pairs
            (e.g. ``["agg0_0", "core1"]``).  Both directions fail, the
            affected uplinks leave ECMP, and routing is pruned so no
            candidate path crosses a failed link.
        degraded: capacity degradations: ``[a, b, factor]`` triples with
            ``factor`` in (0, 1]; serialization and ECMP weights scale.
        buffer_bytes_per_port: shared buffer per switch = this x port count.
        queues_per_port / scheduler / ecn_threshold_bytes: passed to the
            switch configuration.
        base_rtt: end-to-end base RTT across the core; the worst-case
            inter-pod round trip crosses 12 links, so each link gets
            ``base_rtt / 12`` of propagation delay.
        trace_queues: enable queue tracing on all switches.
    """

    def __init__(
        self,
        manager_factory: Callable[[], BufferManager],
        k: int = 4,
        hosts_per_edge: Optional[int] = None,
        oversubscription: float = 1.0,
        link_rate_bps: float = 10 * GBPS,
        tier_rates: Optional[Mapping[str, float]] = None,
        failures: Optional[Sequence[Sequence[str]]] = None,
        degraded: Optional[Sequence[Sequence[object]]] = None,
        buffer_bytes_per_port: int = 512 * KB,
        queues_per_port: int = 1,
        scheduler: str = "fifo",
        ecn_threshold_bytes: Optional[int] = None,
        base_rtt: float = 120e-6,
        trace_queues: bool = False,
        simulator: Optional[Simulator] = None,
    ) -> None:
        if k < 2 or k % 2 != 0:
            raise ValueError("fat-tree arity k must be an even number >= 2")
        if oversubscription <= 0:
            raise ValueError("oversubscription must be positive")
        require_positive("fat_tree", link_rate_bps=link_rate_bps,
                         buffer_bytes_per_port=buffer_bytes_per_port,
                         base_rtt=base_rtt)
        half = k // 2
        if hosts_per_edge is None:
            hosts_per_edge = max(1, round(half * oversubscription))
        if hosts_per_edge < 1:
            raise ValueError("hosts_per_edge must be at least 1")
        self.sim = simulator or Simulator()
        self.k = k
        self.num_pods = k
        self.hosts_per_edge = hosts_per_edge
        self.link_rate_bps = link_rate_bps
        self.tier_rates = resolve_tier_rates(
            tier_rates,
            {"host": link_rate_bps, "agg": link_rate_bps,
             "core": link_rate_bps},
            "fat_tree",
        )
        self.base_rtt = base_rtt
        link_delay = base_rtt / 12.0
        host_spec = LinkSpec(rate_bps=self.tier_rates["host"], delay=link_delay)
        agg_spec = LinkSpec(rate_bps=self.tier_rates["agg"], delay=link_delay)
        core_spec = LinkSpec(rate_bps=self.tier_rates["core"], delay=link_delay)

        self.network = Network(self.sim, bottleneck_bps=link_rate_bps,
                               base_rtt=base_rtt)

        # ------------------------------------------------------------------
        # Switches
        # ------------------------------------------------------------------
        self.edges: List[SwitchNode] = []   # k * k/2, pod-major order
        self.aggs: List[SwitchNode] = []    # k * k/2, pod-major order
        self.cores: List[SwitchNode] = []   # (k/2)^2

        edge_ports = hosts_per_edge + half
        agg_ports = k
        core_ports = k

        def _make_switch(name: str, num_ports: int) -> SwitchNode:
            config = SwitchConfig(
                num_ports=num_ports,
                queues_per_port=queues_per_port,
                port_rate_bps=link_rate_bps,
                buffer_bytes=buffer_bytes_per_port * num_ports,
                scheduler=scheduler,
                ecn_threshold_bytes=ecn_threshold_bytes,
                trace_queues=trace_queues,
                name=name,
            )
            node = SwitchNode(name, self.sim, config, manager_factory())
            # Distinct per-switch salts keep the edge and aggregation ECMP
            # stages decorrelated: both have k/2 uplinks, so an unsalted
            # hash would repeat the edge's pick at the agg and leave all
            # but the "diagonal" cores idle.
            node.routing.set_salt(switch_salt(name))
            self.network.add_switch(node)
            return node

        for pod in range(k):
            for e in range(half):
                self.edges.append(_make_switch(f"edge{pod}_{e}", edge_ports))
            for a in range(half):
                self.aggs.append(_make_switch(f"agg{pod}_{a}", agg_ports))
        for c in range(half * half):
            self.cores.append(_make_switch(f"core{c}", core_ports))

        # ------------------------------------------------------------------
        # Hosts and links
        # ------------------------------------------------------------------
        self.hosts: List[int] = []
        self.host_edge: Dict[int, int] = {}  # host id -> global edge index
        for edge_idx, edge in enumerate(self.edges):
            for local in range(hosts_per_edge):
                host_id = edge_idx * hosts_per_edge + local
                host = self.network.add_host(host_id, self.tier_rates["host"])
                self.network.connect_host_to_switch(host, edge, local,
                                                    spec=host_spec)
                self.hosts.append(host_id)
                self.host_edge[host_id] = edge_idx

        for pod in range(k):
            for e in range(half):
                edge = self.edges[pod * half + e]
                for a in range(half):
                    agg = self.aggs[pod * half + a]
                    self.network.connect_switches(
                        edge, hosts_per_edge + a, agg, e, spec=agg_spec)
                    edge.routing.add_uplink(hosts_per_edge + a)
            for a in range(half):
                agg = self.aggs[pod * half + a]
                for j in range(half):
                    core = self.cores[a * half + j]
                    self.network.connect_switches(
                        agg, half + j, core, pod, spec=core_spec)
                    agg.routing.add_uplink(half + j)

        # Downward routes: aggregation switches know their pod's hosts, core
        # switches know every host's pod.  Everything else falls back to the
        # ECMP uplink spread registered above.
        for pod in range(k):
            pod_hosts = [
                (self.host_edge[h] % half, h)
                for h in self.hosts
                if self.host_edge[h] // half == pod
            ]
            for a in range(half):
                agg = self.aggs[pod * half + a]
                for edge_local, host_id in pod_hosts:
                    agg.routing.add_host_route(host_id, edge_local)
            for core in self.cores:
                for _, host_id in pod_hosts:
                    core.routing.add_host_route(host_id, pod)

        # Capacity-weighted ECMP + failure/degradation injection.  With the
        # default symmetric fabric every weight is equal and nothing is
        # pruned, so routing is byte-identical to the single-rate model.
        self.network.refresh_ecmp_weights()
        self.network.apply_fabric(failures=failures, degraded=degraded)

        self._path_enumerator = PathEnumerator()
        self._enumerated_failures = len(self.network.failed_links)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def pod_of_host(self, host_id: int) -> int:
        return self.host_edge[host_id] // (self.k // 2)

    def hosts_of_pod(self, pod: int) -> List[int]:
        return [h for h in self.hosts if self.pod_of_host(h) == pod]

    def edge_of_host(self, host_id: int) -> SwitchNode:
        return self.edges[self.host_edge[host_id]]

    def all_switches(self) -> List[SwitchNode]:
        return self.edges + self.aggs + self.cores

    # ------------------------------------------------------------------
    # Path introspection (tests, diagnostics)
    # ------------------------------------------------------------------
    def paths_between(self, src: int, dst: int) -> List[Tuple[str, ...]]:
        """All ECMP-eligible switch paths from ``src`` to ``dst``, sorted.

        Reflects the *current* fabric: failures injected after construction
        (``network.fail_link``) invalidate the memoized enumerator, so
        returned paths never cross a failed link.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        failed = len(self.network.failed_links)
        if failed != self._enumerated_failures:
            self._path_enumerator = PathEnumerator()
            self._enumerated_failures = failed
        return self._path_enumerator.paths(self.edge_of_host(src), dst)

    def path_of_flow(self, src: int, dst: int, flow_id: int) -> Tuple[str, ...]:
        """The switch path flow ``flow_id`` actually takes (ECMP-resolved)."""
        return trace_path(self.edge_of_host(src), src, dst, flow_id)
