"""Figure 23: impact of the buffer size (per port per Gbps).

Future, faster switch chips will have even shallower buffers.  This experiment
sweeps the buffer from ~3.44 KB/port/Gbps (Intel Tofino) to 9.6 KB/port/Gbps
(Broadcom Trident2) and reports the QCT/FCT slowdowns, confirming that
Occamy's benefit persists across buffer depths.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.experiments.common import (
    ExperimentResult,
    default_schemes,
    get_scale,
)
from repro.metrics.percentiles import mean, percentile
from repro.scenario import leaf_spine_scenario, run_scenario
from repro.sim.units import KB


def run(scale: str = "small", seed: int = 0,
        schemes: Optional[List[str]] = None,
        buffer_kb_per_port_per_gbps: Optional[Iterable[float]] = None,
        background_load: float = 0.4) -> ExperimentResult:
    """QCT / FCT slowdowns as the shared buffer shrinks or grows."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if buffer_kb_per_port_per_gbps is None:
        buffer_kb_per_port_per_gbps = (5.12,) if scale == "bench" else (3.44, 5.12, 9.6)

    result = ExperimentResult(
        "fig23_buffer_size",
        notes="leaf-spine, query size 40% of buffer, background load "
              f"{background_load:.0%}",
    )
    gbps = config.fabric_link_rate_bps / 1e9
    for kb_per_port_gbps in buffer_kb_per_port_per_gbps:
        buffer_per_port = int(kb_per_port_gbps * KB * gbps)
        query_size = max(4000, int(0.4 * buffer_per_port * 8))
        for scheme in schemes:
            run_result = run_scenario(leaf_spine_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_load=background_load,
                buffer_bytes_per_port=buffer_per_port,
                name="fig23_buffer_size",
            ))
            stats = run_result.flow_stats
            result.add_row(
                buffer_kb_per_port_per_gbps=kb_per_port_gbps,
                scheme=scheme,
                avg_qct_slowdown=mean(stats.qct_slowdowns()),
                p99_qct_slowdown=percentile(stats.qct_slowdowns(), 99),
                avg_bg_fct_slowdown=mean(stats.fct_slowdowns(query_traffic=False)),
                p99_small_bg_fct_slowdown=percentile(
                    stats.fct_slowdowns(query_traffic=False, small_only=True), 99
                ),
                drops=run_result.total_drops(),
            )
    return result
