"""A dumbbell topology: two switches joined by one bottleneck link.

Useful for controlled congestion-control and buffer-sharing experiments where
exactly one link is the bottleneck (e.g. validating DCTCP behaviour or the
burst-absorption micro-benchmarks at network level).
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence

from repro.core.base import BufferManager
from repro.netsim.link import LinkSpec
from repro.netsim.network import Network
from repro.netsim.switch_node import SwitchNode
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB
from repro.switchsim.switch import SwitchConfig
from repro.topology._tiers import require_positive, resolve_tier_rates


class DumbbellTopology:
    """``num_pairs`` senders on the left switch, receivers on the right switch.

    Host ids: senders are ``0..num_pairs-1`` (attached to the left switch),
    receivers are ``num_pairs..2*num_pairs-1`` (attached to the right switch).
    The right-hand switch's port 0 carries the bottleneck link.

    Tiers: ``host`` (host<->switch access links, default ``edge_rate_bps``)
    and ``trunk`` (the inter-switch bottleneck, default
    ``bottleneck_rate_bps``).  The trunk link carries its rate as identity,
    so a ``bottleneck_rate_bps`` below the edge rate now genuinely slows the
    inter-switch wire (historically it only renormalized FCT slowdowns).
    ``degraded`` entries (``[a, b, factor]``, e.g. ``["left", "right",
    0.5]``) scale a link pair's capacity; ``failures`` are rejected -- the
    dumbbell has a single path.
    """

    def __init__(
        self,
        num_pairs: int,
        manager_factory: Callable[[], BufferManager],
        edge_rate_bps: float = 10 * GBPS,
        bottleneck_rate_bps: Optional[float] = None,
        tier_rates: Optional[Mapping[str, float]] = None,
        failures: Optional[Sequence[Sequence[str]]] = None,
        degraded: Optional[Sequence[Sequence[object]]] = None,
        buffer_bytes: Optional[int] = None,
        queues_per_port: int = 1,
        scheduler: str = "fifo",
        ecn_threshold_bytes: Optional[int] = None,
        link_delay: float = 5e-6,
        trace_queues: bool = False,
        simulator: Optional[Simulator] = None,
    ) -> None:
        if num_pairs < 1:
            raise ValueError("need at least one sender/receiver pair")
        require_positive("dumbbell", edge_rate_bps=edge_rate_bps)
        if failures:
            raise ValueError(
                "dumbbell: link failures are not supported (single-path "
                "topology -- any failure partitions it); use 'degraded'")
        self.sim = simulator or Simulator()
        bottleneck_rate_bps = bottleneck_rate_bps or edge_rate_bps
        require_positive("dumbbell", bottleneck_rate_bps=bottleneck_rate_bps)
        self.tier_rates = resolve_tier_rates(
            tier_rates,
            {"host": edge_rate_bps, "trunk": bottleneck_rate_bps},
            "dumbbell",
        )
        bottleneck_rate_bps = self.tier_rates["trunk"]
        self.link_rate_bps = edge_rate_bps
        self.bottleneck_rate_bps = bottleneck_rate_bps
        if buffer_bytes is None:
            buffer_bytes = int(5.12 * KB * (num_pairs + 1) * edge_rate_bps / 1e9)

        self.base_rtt = 6 * link_delay
        self.network = Network(self.sim, bottleneck_bps=bottleneck_rate_bps,
                               base_rtt=self.base_rtt)

        def switch_config(name: str, ports: int) -> SwitchConfig:
            return SwitchConfig(
                num_ports=ports,
                queues_per_port=queues_per_port,
                port_rate_bps=edge_rate_bps,
                buffer_bytes=buffer_bytes,
                scheduler=scheduler,
                ecn_threshold_bytes=ecn_threshold_bytes,
                trace_queues=trace_queues,
                name=name,
            )

        # Port layout: port 0 of each switch is the inter-switch trunk; hosts
        # occupy ports 1..num_pairs.
        self.left = SwitchNode("left", self.sim, switch_config("left", num_pairs + 1),
                               manager_factory())
        self.right = SwitchNode("right", self.sim, switch_config("right", num_pairs + 1),
                                manager_factory())
        self.network.add_switch(self.left)
        self.network.add_switch(self.right)
        trunk_spec = LinkSpec(rate_bps=self.tier_rates["trunk"],
                              delay=link_delay)
        host_spec = LinkSpec(rate_bps=self.tier_rates["host"],
                             delay=link_delay)
        self.network.connect_switches(self.left, 0, self.right, 0,
                                      spec=trunk_spec)

        self.senders: List[int] = []
        self.receivers: List[int] = []
        for i in range(num_pairs):
            sender_id = i
            receiver_id = num_pairs + i
            sender = self.network.add_host(sender_id, self.tier_rates["host"])
            receiver = self.network.add_host(receiver_id, self.tier_rates["host"])
            self.network.connect_host_to_switch(sender, self.left, i + 1,
                                                spec=host_spec)
            self.network.connect_host_to_switch(receiver, self.right, i + 1,
                                                spec=host_spec)
            self.senders.append(sender_id)
            self.receivers.append(receiver_id)
            # Cross-switch routes go over the trunk (port 0).
            self.left.routing.add_host_route(receiver_id, 0)
            self.right.routing.add_host_route(sender_id, 0)

        self.network.apply_fabric(degraded=degraded)

    @property
    def hosts(self) -> List[int]:
        """All host ids, senders first (the workload layer's uniform view)."""
        return self.senders + self.receivers

    def all_switches(self) -> List[SwitchNode]:
        """Uniform accessor shared by every topology: all switch nodes."""
        return [self.left, self.right]
