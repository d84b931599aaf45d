"""Figure 17: large-scale leaf-spine simulation with web-search background.

Incast query traffic plus web-search background (90% load in the paper) on a
leaf-spine fabric; the figure reports QCT slowdown (average and p99) for the
query traffic and FCT slowdown for the background (overall average and p99 of
small flows) as the query size sweeps from 20% to 100% of the buffer.
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


def run(scale: str = "small", seed: int = 0,
        schemes: Optional[List[str]] = None,
        query_size_fractions: Optional[Iterable[float]] = None,
        background_load: float = 0.6) -> ExperimentResult:
    """QCT/FCT slowdowns on the leaf-spine fabric with web-search background."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (0.6,) if scale == "bench" else (0.2, 0.4, 0.6, 0.8, 1.0)
    # "Buffer size" here follows the paper: the buffer shared by one port group.
    reference_buffer = config.fabric_buffer_bytes_per_port * 8

    result = ExperimentResult(
        "fig17_websearch",
        notes=f"leaf-spine, web-search background at {background_load:.0%} load",
    )
    for fraction in query_size_fractions:
        query_size = max(4000, int(fraction * reference_buffer))
        for scheme in schemes:
            run_result = run_scenario(leaf_spine_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_load=background_load,
                name="fig17_websearch",
            ))
            stats = run_result.flow_stats
            small_bg = stats.fct_slowdowns(query_traffic=False, small_only=True)
            result.add_row(
                query_size_frac=round(fraction, 2),
                scheme=scheme,
                avg_qct_slowdown=mean(stats.qct_slowdowns()),
                p99_qct_slowdown=percentile(stats.qct_slowdowns(), 99),
                avg_bg_fct_slowdown=mean(stats.fct_slowdowns(query_traffic=False)),
                p99_small_bg_fct_slowdown=percentile(small_bg, 99),
                drops=run_result.total_drops(),
                completion=round(stats.completion_fraction(), 3),
            )
    return result
