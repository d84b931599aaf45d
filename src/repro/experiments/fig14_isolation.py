"""Figure 14: performance isolation between service queues (DRR scheduling).

Query traffic and background traffic are assigned to two different service
queues on every port, scheduled by Deficit Round Robin.  The background flows
use CUBIC (loss-driven, buffer-filling) and their load is swept; the figure
reports how much the query traffic's QCT suffers.  Non-preemptive schemes let
the background queue hold on to over-allocated buffer, driving the query
traffic into retransmission timeouts; Occamy reclaims it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.experiments.common import (
    ExperimentResult,
    default_schemes,
    get_scale,
)
from repro.scenario import run_scenario, single_switch_scenario


def run(scale: str = "small", seed: int = 0,
        schemes: Optional[List[str]] = None,
        background_loads: Optional[Iterable[float]] = None,
        query_size_fraction: float = 0.8) -> ExperimentResult:
    """Average / p99 QCT vs background load with two DRR service queues."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if background_loads is None:
        background_loads = (0.3, 0.6) if scale == "bench" else (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    buffer_bytes = int(config.buffer_kb_per_port_per_gbps * 1024
                       * config.num_hosts * config.link_rate_bps / 1e9)
    query_size = max(2000, int(query_size_fraction * buffer_bytes))

    result = ExperimentResult(
        "fig14_isolation",
        notes="2 DRR service queues per port; CUBIC background, DCTCP queries",
    )
    for load in background_loads:
        for scheme in schemes:
            spec = single_switch_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_load=load,
                queues_per_port=2, scheduler="drr",
                query_priority=0, background_priority=1,
                background_transport="cubic",
                name="fig14_isolation",
            )
            run_result = run_scenario(spec)
            stats = run_result.flow_stats
            result.add_row(
                background_load=load,
                scheme=scheme,
                avg_qct_ms=stats.average_qct() * 1e3,
                p99_qct_ms=stats.p99_qct() * 1e3,
                query_timeouts=run_result.topology.network.total_timeouts(),
                drops=run_result.switch_stats.dropped_packets,
                expelled=run_result.switch_stats.expelled_packets,
            )
    return result
