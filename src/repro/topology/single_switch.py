"""A single shared-memory switch with N directly attached hosts (star).

This is the topology of the paper's DPDK testbed (Section 6.2): eight hosts on
10 Gbps links around one software switch with 5.12 KB of buffer per port per
Gbps (410 KB total), and of the buffer-choking testbed of Section 3.1.
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


class SingleSwitchTopology:
    """Builds a star network around one shared-memory switch.

    Args:
        num_hosts: number of hosts (one switch port each).
        manager_factory: zero-argument callable returning a fresh buffer
            manager for the switch.
        link_rate_bps: nominal host and switch port rate.
        tier_rates: per-tier override; the star has one tier, ``host``.
        degraded: capacity degradations, ``[a, b, factor]`` triples by
            endpoint names (e.g. ``["h0", "s0", 0.5]``): the host NIC and
            the switch egress port feeding that host both slow down.
        failures: rejected -- failing a host link partitions the host.
        buffer_bytes: total shared buffer; if ``None`` it is sized as
            ``buffer_kb_per_port_per_gbps`` KB x ports x Gbps (the paper uses
            5.12, Broadcom Tomahawk-like).
        buffer_kb_per_port_per_gbps: see above.
        queues_per_port: class queues per port.
        scheduler: per-port scheduler name.
        ecn_threshold_bytes: per-queue ECN marking threshold (None disables).
        link_delay: one-way propagation delay of every host link.
        trace_queues: enable queue-length tracing on the switch.
        simulator: reuse an existing simulator (a new one by default).
    """

    def __init__(
        self,
        num_hosts: int,
        manager_factory: Callable[[], BufferManager],
        link_rate_bps: float = 10 * GBPS,
        tier_rates: Optional[Mapping[str, float]] = None,
        failures: Optional[Sequence[Sequence[str]]] = None,
        degraded: Optional[Sequence[Sequence[object]]] = None,
        buffer_bytes: Optional[int] = None,
        buffer_kb_per_port_per_gbps: float = 5.12,
        queues_per_port: int = 1,
        scheduler: str = "fifo",
        ecn_threshold_bytes: Optional[int] = None,
        link_delay: float = 2e-6,
        trace_queues: bool = False,
        simulator: Optional[Simulator] = None,
    ) -> None:
        if num_hosts < 2:
            raise ValueError("need at least two hosts")
        require_positive("single_switch", link_rate_bps=link_rate_bps)
        if link_delay < 0:
            raise ValueError(
                f"single_switch: link_delay cannot be negative, "
                f"got {link_delay!r}")
        self.sim = simulator or Simulator()
        self.num_hosts = num_hosts
        self.link_rate_bps = link_rate_bps
        self.tier_rates = resolve_tier_rates(
            tier_rates, {"host": link_rate_bps}, "single_switch")

        if buffer_bytes is None:
            gbps = link_rate_bps / 1e9
            buffer_bytes = int(buffer_kb_per_port_per_gbps * KB * num_hosts * gbps)
        self.buffer_bytes = buffer_bytes

        # Base RTT: four link traversals (host->switch->host and back).
        self.base_rtt = 4 * link_delay
        self.network = Network(self.sim, bottleneck_bps=link_rate_bps,
                               base_rtt=self.base_rtt)

        config = SwitchConfig(
            num_ports=num_hosts,
            queues_per_port=queues_per_port,
            port_rate_bps=link_rate_bps,
            buffer_bytes=buffer_bytes,
            scheduler=scheduler,
            ecn_threshold_bytes=ecn_threshold_bytes,
            trace_queues=trace_queues,
            name="s0",
        )
        self.switch_node = SwitchNode("s0", self.sim, config, manager_factory())
        self.network.add_switch(self.switch_node)

        host_spec = LinkSpec(rate_bps=self.tier_rates["host"],
                             delay=link_delay)
        self.hosts: List[int] = []
        for host_id in range(num_hosts):
            host = self.network.add_host(host_id, self.tier_rates["host"])
            self.network.connect_host_to_switch(host, self.switch_node, host_id,
                                                spec=host_spec)
            self.hosts.append(host_id)
        # The star has no multipath, so failures cannot be routed around --
        # apply_fabric rejects them (host links partition); degradation of
        # individual host links is supported.
        self.network.apply_fabric(failures=failures, degraded=degraded)

    @property
    def switch(self):
        """The underlying :class:`SharedMemorySwitch`."""
        return self.switch_node.switch

    def all_switches(self):
        """Uniform accessor shared by every topology: all switch nodes."""
        return [self.switch_node]
