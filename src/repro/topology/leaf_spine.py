"""A leaf-spine (Clos) fabric, the topology of the paper's ns-3 simulations.

The paper simulates 8 leaves x 8 spines with 16 hosts per leaf on 100 Gbps
links and a base RTT of 80 us; every group of 8 ports shares 4 MB of buffer.
The builder defaults to a scaled-down fabric so pure-Python runs stay fast,
but all dimensions are parameters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.base import BufferManager
from repro.netsim.link import LinkSpec
from repro.netsim.network import Network
from repro.netsim.switch_node import SwitchNode
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB
from repro.switchsim.switch import SwitchConfig
from repro.topology._tiers import require_positive, resolve_tier_rates


class LeafSpineTopology:
    """Builds a leaf-spine fabric with ECMP across the spines.

    Host numbering: leaf ``L`` hosts are ``L * hosts_per_leaf ... (L+1) *
    hosts_per_leaf - 1``.  Leaf switch ports ``0..hosts_per_leaf-1`` face the
    hosts, ports ``hosts_per_leaf..hosts_per_leaf+num_spines-1`` face the
    spines.  Spine switch port ``L`` faces leaf ``L``.

    Args:
        num_leaves / num_spines / hosts_per_leaf: fabric dimensions.
        manager_factory: callable returning a fresh buffer manager; called
            once per switch so every switch has its own instance.
        oversubscription: when given, derives the spine count from the host
            count instead of taking ``num_spines`` literally:
            ``num_spines = max(1, round(hosts_per_leaf / oversubscription))``
            (with symmetric rates the leaf's downlink:uplink capacity
            ratio *is* ``hosts_per_leaf / num_spines``).  ``2.0`` gives the
            classic 2:1 oversubscribed leaf.
        link_rate_bps: nominal rate of all links (hosts and fabric).
        tier_rates: per-tier link-rate overrides: ``host`` (host<->leaf)
            and ``spine`` (leaf<->spine uplinks).  Links carry their tier's
            rate as identity; egress ports serialize at it and ECMP weights
            members by effective capacity (real oversubscribed uplinks).
        failures: link-failure injection, ``[a, b]`` endpoint-name pairs
            (e.g. ``["leaf0", "spine1"]``); see
            :meth:`repro.netsim.network.Network.fail_link`.
        degraded: capacity degradations, ``[a, b, factor]`` triples.
        buffer_bytes_per_port: shared buffer per switch = this x port count
            (the paper's 4 MB per 8 ports = 512 KB per port).
        queues_per_port / scheduler / ecn_threshold_bytes: passed to the
            switch configuration.
        base_rtt: end-to-end base RTT across the spine; each of the 8 link
            traversals gets ``base_rtt / 8`` of propagation delay.
        trace_queues: enable queue tracing on all switches.
    """

    def __init__(
        self,
        manager_factory: Callable[[], BufferManager],
        num_leaves: int = 4,
        num_spines: int = 4,
        hosts_per_leaf: int = 4,
        oversubscription: Optional[float] = None,
        link_rate_bps: float = 10 * GBPS,
        tier_rates: Optional[Mapping[str, float]] = None,
        failures: Optional[Sequence[Sequence[str]]] = None,
        degraded: Optional[Sequence[Sequence[object]]] = None,
        buffer_bytes_per_port: int = 512 * KB,
        queues_per_port: int = 1,
        scheduler: str = "fifo",
        ecn_threshold_bytes: Optional[int] = None,
        base_rtt: float = 80e-6,
        trace_queues: bool = False,
        simulator: Optional[Simulator] = None,
    ) -> None:
        if oversubscription is not None:
            if oversubscription <= 0:
                raise ValueError("oversubscription must be positive")
            num_spines = max(1, round(hosts_per_leaf / oversubscription))
        if num_leaves < 2 or num_spines < 1 or hosts_per_leaf < 1:
            raise ValueError("fabric dimensions must be positive (>=2 leaves)")
        require_positive("leaf_spine", link_rate_bps=link_rate_bps,
                         buffer_bytes_per_port=buffer_bytes_per_port,
                         base_rtt=base_rtt)
        self.sim = simulator or Simulator()
        self.num_leaves = num_leaves
        self.num_spines = num_spines
        self.hosts_per_leaf = hosts_per_leaf
        self.link_rate_bps = link_rate_bps
        self.tier_rates = resolve_tier_rates(
            tier_rates,
            {"host": link_rate_bps, "spine": link_rate_bps},
            "leaf_spine",
        )
        self.base_rtt = base_rtt
        link_delay = base_rtt / 8.0
        host_spec = LinkSpec(rate_bps=self.tier_rates["host"], delay=link_delay)
        spine_spec = LinkSpec(rate_bps=self.tier_rates["spine"],
                              delay=link_delay)

        self.network = Network(self.sim, bottleneck_bps=link_rate_bps, base_rtt=base_rtt)

        # ------------------------------------------------------------------
        # Switches
        # ------------------------------------------------------------------
        self.leaves: List[SwitchNode] = []
        self.spines: List[SwitchNode] = []

        leaf_ports = hosts_per_leaf + num_spines
        spine_ports = num_leaves
        for leaf_idx in range(num_leaves):
            config = SwitchConfig(
                num_ports=leaf_ports,
                queues_per_port=queues_per_port,
                port_rate_bps=link_rate_bps,
                buffer_bytes=buffer_bytes_per_port * leaf_ports,
                scheduler=scheduler,
                ecn_threshold_bytes=ecn_threshold_bytes,
                trace_queues=trace_queues,
                name=f"leaf{leaf_idx}",
            )
            node = SwitchNode(f"leaf{leaf_idx}", self.sim, config, manager_factory())
            self.network.add_switch(node)
            self.leaves.append(node)
        for spine_idx in range(num_spines):
            config = SwitchConfig(
                num_ports=spine_ports,
                queues_per_port=queues_per_port,
                port_rate_bps=link_rate_bps,
                buffer_bytes=buffer_bytes_per_port * spine_ports,
                scheduler=scheduler,
                ecn_threshold_bytes=ecn_threshold_bytes,
                trace_queues=trace_queues,
                name=f"spine{spine_idx}",
            )
            node = SwitchNode(f"spine{spine_idx}", self.sim, config, manager_factory())
            self.network.add_switch(node)
            self.spines.append(node)

        # ------------------------------------------------------------------
        # Hosts and links
        # ------------------------------------------------------------------
        self.hosts: List[int] = []
        self.host_leaf: Dict[int, int] = {}
        for leaf_idx, leaf in enumerate(self.leaves):
            for local in range(hosts_per_leaf):
                host_id = leaf_idx * hosts_per_leaf + local
                host = self.network.add_host(host_id, self.tier_rates["host"])
                self.network.connect_host_to_switch(host, leaf, local,
                                                    spec=host_spec)
                self.hosts.append(host_id)
                self.host_leaf[host_id] = leaf_idx

        for leaf_idx, leaf in enumerate(self.leaves):
            for spine_idx, spine in enumerate(self.spines):
                leaf_port = hosts_per_leaf + spine_idx
                spine_port = leaf_idx
                self.network.connect_switches(leaf, leaf_port, spine, spine_port,
                                              spec=spine_spec)
                leaf.routing.add_uplink(leaf_port)

        # Spine routing: every host is reached through its leaf's port.
        for spine in self.spines:
            for host_id, leaf_idx in self.host_leaf.items():
                spine.routing.add_host_route(host_id, leaf_idx)

        # Capacity-weighted ECMP + failure/degradation injection (no-ops on
        # the default symmetric fabric, keeping routing byte-identical).
        self.network.refresh_ecmp_weights()
        self.network.apply_fabric(failures=failures, degraded=degraded)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def hosts_of_leaf(self, leaf_idx: int) -> List[int]:
        return [h for h, l in self.host_leaf.items() if l == leaf_idx]

    def all_switches(self) -> List[SwitchNode]:
        return self.leaves + self.spines
