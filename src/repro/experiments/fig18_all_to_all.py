"""Figure 18: performance with all-to-all background traffic (AI workloads).

Every host sends an identical amount of data to every other host while the
incast query traffic runs on top.  The figure sweeps the per-flow size of the
all-to-all traffic and reports the query traffic's average QCT slowdown and
the background's p99 FCT slowdown.
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
        flow_sizes_kb: Optional[Iterable[int]] = None,
        background_kind: str = "all_to_all") -> ExperimentResult:
    """QCT / FCT slowdowns with collective background traffic."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if flow_sizes_kb is None:
        flow_sizes_kb = (64,) if scale == "bench" else (16, 64, 256, 1024)
    query_size = 4 * config.fabric_buffer_bytes_per_port

    result = ExperimentResult(
        f"fig18_{background_kind}",
        notes=f"leaf-spine, {background_kind} background + incast queries",
    )
    for size_kb in flow_sizes_kb:
        for scheme in schemes:
            run_result = run_scenario(leaf_spine_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_kind=background_kind,
                background_flow_size=size_kb * KB,
                name=f"fig18_{background_kind}",
            ))
            stats = run_result.flow_stats
            result.add_row(
                flow_size_kb=size_kb,
                scheme=scheme,
                avg_qct_slowdown=mean(stats.qct_slowdowns()),
                p99_bg_fct_slowdown=percentile(
                    stats.fct_slowdowns(query_traffic=False), 99
                ),
                drops=run_result.total_drops(),
                completion=round(stats.completion_fraction(), 3),
            )
    return result
