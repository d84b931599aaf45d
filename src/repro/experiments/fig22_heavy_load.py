"""Figure 22: performance under heavy (120%) network load.

Occamy relies on redundant memory bandwidth; this experiment over-subscribes
the background traffic (120% offered load) to check that Occamy still helps --
in practice congestion is unbalanced across ports, so redundant bandwidth
remains available where it is needed.
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
        background_load: float = 1.2) -> ExperimentResult:
    """QCT / FCT slowdowns at 120% offered background load."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (0.6,) if scale == "bench" else (0.2, 0.6, 1.0)
    reference_buffer = config.fabric_buffer_bytes_per_port * 8

    result = ExperimentResult(
        "fig22_heavy_load",
        notes=f"leaf-spine, background offered load {background_load:.0%}",
    )
    for fraction in query_size_fractions:
        query_size = max(4000, int(fraction * reference_buffer))
        for scheme in schemes:
            run_result = run_scenario(leaf_spine_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_load=background_load,
                name="fig22_heavy_load",
            ))
            stats = run_result.flow_stats
            result.add_row(
                query_size_frac=round(fraction, 2),
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
