"""Figure 17: large-scale leaf-spine simulation with web-search background.

Incast query traffic plus web-search background (90% load in the paper) on a
leaf-spine fabric; the figure reports QCT slowdown (average and p99) for the
query traffic and FCT slowdown for the background (overall average and p99 of
small flows) as the query size sweeps from 20% to 100% of the buffer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import Figure, default_schemes, get_scale, slowdowns
from repro.scenario import ScenarioResult, leaf_spine_scenario


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           query_size_fractions: Optional[Iterable[float]] = None,
           background_load: float = 0.6) -> Figure:
    """Every scheme at every query size on the leaf-spine fabric."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (0.6,) if scale == "bench" else (0.2, 0.4, 0.6, 0.8, 1.0)
    # "Buffer size" here follows the paper: the buffer shared by one port group.
    reference_buffer = config.fabric_buffer_bytes_per_port * 8
    return Figure(
        "fig17_websearch",
        notes=f"leaf-spine, web-search background at {background_load:.0%} load",
        points=[({"query_size_frac": round(fraction, 2), "scheme": scheme},
                 leaf_spine_scenario(
                     scheme=scheme, config=config,
                     query_size_bytes=max(4000, int(fraction * reference_buffer)),
                     seed=seed, background_load=background_load,
                     name="fig17_websearch",
                 ))
                for fraction in query_size_fractions for scheme in schemes],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """QCT slowdowns of the queries, FCT slowdowns of the background."""
    return dict(
        keys,
        **slowdowns(result.flow_stats),
        drops=result.total_drops(),
        completion=round(result.flow_stats.completion_fraction(), 3),
    )
