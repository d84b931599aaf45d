"""Figure 21: the effectiveness of round-robin drop vs longest-queue drop.

Occamy expels from all over-allocated queues in round-robin order to avoid
the cost of tracking the longest queue.  This harness compares that choice to
the ablation that always drops from the longest over-allocated queue,
reporting QCT and FCT slowdowns for both variants -- the paper's result is
that they are within ~15% of each other.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments.common import ExperimentResult, get_scale
from repro.metrics.percentiles import mean, percentile
from repro.scenario import leaf_spine_scenario, run_scenario


def run(scale: str = "small", seed: int = 0,
        query_size_fractions: Optional[Iterable[float]] = None,
        background_load: float = 0.4) -> ExperimentResult:
    """Round-robin vs longest-queue drop for Occamy on the leaf-spine fabric."""
    config = get_scale(scale)
    if query_size_fractions is None:
        query_size_fractions = (0.6,) if scale == "bench" else (0.2, 0.4, 0.6, 0.8, 1.0)
    reference_buffer = config.fabric_buffer_bytes_per_port * 8

    result = ExperimentResult(
        "fig21_round_robin",
        notes=f"Occamy victim policy ablation, background load {background_load:.0%}",
    )
    for fraction in query_size_fractions:
        query_size = max(4000, int(fraction * reference_buffer))
        for scheme, label in (("occamy", "round_robin"), ("occamy_longest", "longest")):
            run_result = run_scenario(leaf_spine_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_load=background_load,
                name="fig21_round_robin",
            ))
            stats = run_result.flow_stats
            result.add_row(
                query_size_frac=round(fraction, 2),
                victim_policy=label,
                avg_qct_slowdown=mean(stats.qct_slowdowns()),
                p99_qct_slowdown=percentile(stats.qct_slowdowns(), 99),
                avg_bg_fct_slowdown=mean(stats.fct_slowdowns(query_traffic=False)),
                p99_small_bg_fct_slowdown=percentile(
                    stats.fct_slowdowns(query_traffic=False, small_only=True), 99
                ),
            )
    return result
