"""A bare shared-memory switch driven with raw packet arrivals.

The P4-prototype experiments (Figures 3, 11 and 12) bypass hosts, links and
transport entirely: arrival schedules are applied straight to the switch's
ingress.  This wrapper gives those packet-level scenarios the same topology
shape (a builder owning a simulator and switches) as the network-level
topologies, so the scenario runner can treat both uniformly.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence

from repro.core.base import BufferManager
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MB
from repro.switchsim.switch import SharedMemorySwitch, SwitchConfig
from repro.topology._tiers import resolve_tier_rates


class RawSwitchTopology:
    """One shared-memory switch with no attached network.

    Args:
        manager_factory: zero-argument callable returning a fresh buffer
            manager for the switch.
        num_ports: egress port count.
        port_rate_bps: nominal line rate of every port.
        tier_rates: per-tier override; the bare switch has one tier,
            ``port`` (an alias for ``port_rate_bps``).
        degraded: per-port capacity degradations, ``[port_id, factor]``
            pairs -- the bare switch has ports, not links, so degradation
            addresses ports directly.
        failures: rejected -- a bare switch has no links to fail.
        buffer_bytes: total shared buffer.
        queues_per_port / scheduler: queueing structure.
        memory_bandwidth_bps: packet-buffer memory bandwidth (``None`` uses
            the switch default of twice the aggregate port rate).
        trace_queues: record queue-length traces (the packet-level figures
            plot them).
        simulator: reuse an existing simulator (a new one by default).
    """

    def __init__(
        self,
        manager_factory: Callable[[], BufferManager],
        num_ports: int = 2,
        port_rate_bps: float = 10 * GBPS,
        tier_rates: Optional[Mapping[str, float]] = None,
        failures: Optional[Sequence[Sequence[str]]] = None,
        degraded: Optional[Sequence[Sequence[object]]] = None,
        buffer_bytes: int = 2 * MB,
        queues_per_port: int = 1,
        scheduler: str = "fifo",
        memory_bandwidth_bps: Optional[float] = None,
        trace_queues: bool = True,
        name: str = "raw",
        simulator: Optional[Simulator] = None,
    ) -> None:
        if failures:
            raise ValueError(
                "raw_switch: a bare switch has no links to fail; "
                "use 'degraded' ([port_id, factor]) to slow ports down")
        port_rate_bps = resolve_tier_rates(
            tier_rates, {"port": port_rate_bps}, "raw_switch")["port"]
        self.sim = simulator or Simulator()
        self.link_rate_bps = port_rate_bps
        config = SwitchConfig(
            num_ports=num_ports,
            queues_per_port=queues_per_port,
            port_rate_bps=port_rate_bps,
            buffer_bytes=buffer_bytes,
            scheduler=scheduler,
            memory_bandwidth_bps=memory_bandwidth_bps,
            trace_queues=trace_queues,
            name=name,
        )
        self.switch = SharedMemorySwitch(config, manager_factory(), self.sim)
        for entry in degraded or []:
            if len(entry) != 2:
                raise ValueError(
                    "raw_switch: degraded entry must be [port_id, factor], "
                    f"got {entry!r}")
            port_id, factor = int(entry[0]), float(entry[1])
            if not 0 <= port_id < num_ports:
                raise ValueError(
                    f"raw_switch: no port {port_id} (have {num_ports})")
            if not 0 < factor <= 1:
                raise ValueError(
                    "raw_switch: degradation factor must be in (0, 1], "
                    f"got {factor!r}")
            self.switch.set_port_rate(port_id, port_rate_bps * factor)

    def all_switches(self) -> List[SharedMemorySwitch]:
        return [self.switch]
