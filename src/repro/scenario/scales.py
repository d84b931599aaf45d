"""Named scenario scales (``bench`` / ``small`` / ``paper``).

The ``paper`` scale mirrors the published setup; ``small`` and ``bench``
shrink host counts, durations and query counts while keeping the ratios
(buffer per port, query size relative to buffer, loads) that the results
depend on.  This module used to live in :mod:`repro.experiments.common`
(which still re-exports it for backward compatibility); it sits below the
scenario layer so both the figure harnesses and scenario builders can use it
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.sim.units import GBPS, KB


@dataclass
class ScenarioConfig:
    """Dimensions of a scenario, scaled for pure-Python runtimes."""

    name: str = "small"
    # Single-switch (DPDK-testbed-like) dimensions.
    num_hosts: int = 8
    link_rate_bps: float = 10 * GBPS
    buffer_kb_per_port_per_gbps: float = 5.12
    ecn_threshold_packets: int = 65
    duration: float = 0.02
    queries: int = 12
    incast_fanout: int = 14
    # Leaf-spine dimensions.
    num_leaves: int = 4
    num_spines: int = 4
    hosts_per_leaf: int = 4
    fabric_link_rate_bps: float = 10 * GBPS
    fabric_buffer_bytes_per_port: int = 256 * KB
    fabric_ecn_threshold_bytes: int = 90 * KB
    fabric_duration: float = 0.02
    fabric_queries: int = 8
    fabric_incast_fanout: int = 8
    # Transport.
    min_rto: float = 2e-3
    run_slack: float = 10.0  # run the sim this many x the workload duration

    def mtu_ecn_threshold_bytes(self, mtu: int = 1500) -> int:
        return self.ecn_threshold_packets * mtu

    @property
    def switch_buffer_bytes(self) -> int:
        """The single switch's shared buffer, sized per port per Gbps."""
        return int(self.buffer_kb_per_port_per_gbps * 1024
                   * self.num_hosts * self.link_rate_bps / 1e9)


_SCALES: Dict[str, ScenarioConfig] = {
    "bench": ScenarioConfig(
        name="bench",
        num_hosts=8,
        duration=0.006,
        queries=4,
        incast_fanout=8,
        num_leaves=2,
        num_spines=2,
        hosts_per_leaf=3,
        fabric_duration=0.006,
        fabric_queries=3,
        fabric_incast_fanout=4,
        fabric_buffer_bytes_per_port=64 * KB,
        fabric_ecn_threshold_bytes=30 * KB,
        min_rto=2e-3,
    ),
    "small": ScenarioConfig(
        name="small",
        fabric_buffer_bytes_per_port=128 * KB,
        fabric_ecn_threshold_bytes=45 * KB,
    ),
    "paper": ScenarioConfig(
        name="paper",
        num_hosts=8,
        duration=0.2,
        queries=60,
        incast_fanout=16,
        num_leaves=8,
        num_spines=8,
        hosts_per_leaf=16,
        fabric_link_rate_bps=100 * GBPS,
        fabric_buffer_bytes_per_port=512 * KB,
        fabric_ecn_threshold_bytes=720 * KB,
        fabric_duration=0.05,
        fabric_queries=40,
        fabric_incast_fanout=16,
        min_rto=5e-3,
    ),
}


def get_scale(scale: str) -> ScenarioConfig:
    """Look up a named scale (``bench``, ``small`` or ``paper``)."""
    try:
        return replace(_SCALES[scale])
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r}; available: {', '.join(sorted(_SCALES))}"
        ) from None
