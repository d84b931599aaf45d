"""Figure 20: performance with higher query-traffic load.

The query load is swept (the paper goes from 10% to 80% of link capacity, with
a fixed query size of 80% of the buffer) while the background runs at a light
10% load.  The figure reports the average QCT slowdown of the queries and the
average FCT slowdown of the background flows.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.experiments.common import (
    ExperimentResult,
    default_schemes,
    get_scale,
)
from repro.metrics.percentiles import mean
from repro.scenario import leaf_spine_scenario, run_scenario


def run(scale: str = "small", seed: int = 0,
        schemes: Optional[List[str]] = None,
        query_loads: Optional[Iterable[float]] = None) -> ExperimentResult:
    """Average QCT / FCT slowdown as the query load grows."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_loads is None:
        query_loads = (0.4,) if scale == "bench" else (0.1, 0.3, 0.5, 0.8)
    reference_buffer = config.fabric_buffer_bytes_per_port * 8
    query_size = int(0.8 * reference_buffer)

    result = ExperimentResult(
        "fig20_query_load",
        notes="leaf-spine, query size 80% of buffer, background load 10%",
    )
    for load in query_loads:
        # Convert the target load into a query count over the run duration.
        bytes_per_query = query_size
        link_bytes = config.fabric_link_rate_bps / 8 * config.fabric_duration
        num_queries = max(2, int(load * link_bytes / bytes_per_query))
        for scheme in schemes:
            run_result = run_scenario(leaf_spine_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_load=0.1, query_load_queries=num_queries,
                name="fig20_query_load",
            ))
            stats = run_result.flow_stats
            result.add_row(
                query_load=load,
                queries=num_queries,
                scheme=scheme,
                avg_qct_slowdown=mean(stats.qct_slowdowns()),
                avg_bg_fct_slowdown=mean(stats.fct_slowdowns(query_traffic=False)),
                drops=run_result.total_drops(),
                completion=round(stats.completion_fraction(), 3),
            )
    return result
