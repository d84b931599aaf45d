"""Figure 20: performance with higher query-traffic load.

The query load is swept (the paper goes from 10% to 80% of link capacity, with
a fixed query size of 80% of the buffer) while the background runs at a light
10% load.  The figure reports the average QCT slowdown of the queries and the
average FCT slowdown of the background flows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import Figure, default_schemes, get_scale
from repro.metrics.percentiles import mean
from repro.scenario import ScenarioResult, leaf_spine_scenario


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           query_loads: Optional[Iterable[float]] = None) -> Figure:
    """Every scheme at every query load."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_loads is None:
        query_loads = (0.4,) if scale == "bench" else (0.1, 0.3, 0.5, 0.8)
    reference_buffer = config.fabric_buffer_bytes_per_port * 8
    query_size = int(0.8 * reference_buffer)
    figure = Figure(
        "fig20_query_load",
        notes="leaf-spine, query size 80% of buffer, background load 10%",
        points=[],
    )
    for load in query_loads:
        # Convert the target load into a query count over the run duration.
        link_bytes = config.fabric_link_rate_bps / 8 * config.fabric_duration
        num_queries = max(2, int(load * link_bytes / query_size))
        figure.points.extend(
            ({"query_load": load, "queries": num_queries, "scheme": scheme},
             leaf_spine_scenario(
                 scheme=scheme, config=config, query_size_bytes=query_size,
                 seed=seed, background_load=0.1, query_load_queries=num_queries,
                 name="fig20_query_load",
             ))
            for scheme in schemes
        )
    return figure


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """Average QCT slowdown of the queries, FCT slowdown of the background."""
    stats = result.flow_stats
    return dict(
        keys,
        avg_qct_slowdown=mean(stats.qct_slowdowns()),
        avg_bg_fct_slowdown=mean(stats.fct_slowdowns(query_traffic=False)),
        drops=result.total_drops(),
        completion=round(stats.completion_fraction(), 3),
    )
