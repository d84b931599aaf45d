"""Figure 23: impact of the buffer size (per port per Gbps).

Future, faster switch chips will have even shallower buffers.  This experiment
sweeps the buffer from ~3.44 KB/port/Gbps (Intel Tofino) to 9.6 KB/port/Gbps
(Broadcom Trident2) and reports the QCT/FCT slowdowns, confirming that
Occamy's benefit persists across buffer depths.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import Figure, default_schemes, get_scale, slowdowns
from repro.scenario import ScenarioResult, leaf_spine_scenario
from repro.sim.units import KB


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           buffer_kb_per_port_per_gbps: Optional[Iterable[float]] = None,
           background_load: float = 0.4) -> Figure:
    """Every scheme at every buffer depth (KB per port per Gbps)."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if buffer_kb_per_port_per_gbps is None:
        buffer_kb_per_port_per_gbps = (5.12,) if scale == "bench" else (3.44, 5.12, 9.6)
    figure = Figure(
        "fig23_buffer_size",
        notes="leaf-spine, query size 40% of buffer, background load "
              f"{background_load:.0%}",
        points=[],
    )
    gbps = config.fabric_link_rate_bps / 1e9
    for kb_per_port_gbps in buffer_kb_per_port_per_gbps:
        buffer_per_port = int(kb_per_port_gbps * KB * gbps)
        figure.points.extend(
            ({"buffer_kb_per_port_per_gbps": kb_per_port_gbps, "scheme": scheme},
             leaf_spine_scenario(
                 scheme=scheme, config=config,
                 query_size_bytes=max(4000, int(0.4 * buffer_per_port * 8)),
                 seed=seed, background_load=background_load,
                 buffer_bytes_per_port=buffer_per_port,
                 name="fig23_buffer_size",
             ))
            for scheme in schemes
        )
    return figure


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """QCT slowdowns of the queries, FCT slowdowns of the background."""
    return dict(
        keys,
        **slowdowns(result.flow_stats),
        drops=result.total_drops(),
    )
