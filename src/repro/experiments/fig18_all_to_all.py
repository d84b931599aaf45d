"""Figure 18: performance with all-to-all background traffic (AI workloads).

Every host sends an identical amount of data to every other host while the
incast query traffic runs on top.  The figure sweeps the per-flow size of the
all-to-all traffic and reports the query traffic's average QCT slowdown and
the background's p99 FCT slowdown.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import Figure, default_schemes, get_scale
from repro.metrics.percentiles import mean, percentile
from repro.scenario import ScenarioResult, leaf_spine_scenario
from repro.sim.units import KB


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           flow_sizes_kb: Optional[Iterable[int]] = None,
           background_kind: str = "all_to_all") -> Figure:
    """Every scheme at every per-flow size of the collective background."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if flow_sizes_kb is None:
        flow_sizes_kb = (64,) if scale == "bench" else (16, 64, 256, 1024)
    return Figure(
        f"fig18_{background_kind}",
        notes=f"leaf-spine, {background_kind} background + incast queries",
        points=[({"flow_size_kb": size_kb, "scheme": scheme},
                 leaf_spine_scenario(
                     scheme=scheme, config=config,
                     query_size_bytes=4 * config.fabric_buffer_bytes_per_port,
                     seed=seed, background_kind=background_kind,
                     background_flow_size=size_kb * KB,
                     name=f"fig18_{background_kind}",
                 ))
                for size_kb in flow_sizes_kb for scheme in schemes],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """Average QCT slowdown and p99 background FCT slowdown."""
    stats = result.flow_stats
    return dict(
        keys,
        avg_qct_slowdown=mean(stats.qct_slowdowns()),
        p99_bg_fct_slowdown=percentile(
            stats.fct_slowdowns(query_traffic=False), 99
        ),
        drops=result.total_drops(),
        completion=round(stats.completion_fraction(), 3),
    )
