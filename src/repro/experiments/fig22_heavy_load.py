"""Figure 22: performance under heavy (120%) network load.

Occamy relies on redundant memory bandwidth; this experiment over-subscribes
the background traffic (120% offered load) to check that Occamy still helps --
in practice congestion is unbalanced across ports, so redundant bandwidth
remains available where it is needed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import Figure, default_schemes, get_scale, slowdowns
from repro.scenario import ScenarioResult, leaf_spine_scenario


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           query_size_fractions: Optional[Iterable[float]] = None,
           background_load: float = 1.2) -> Figure:
    """Every scheme at every query size, at 120% offered background load."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (0.6,) if scale == "bench" else (0.2, 0.6, 1.0)
    reference_buffer = config.fabric_buffer_bytes_per_port * 8
    return Figure(
        "fig22_heavy_load",
        notes=f"leaf-spine, background offered load {background_load:.0%}",
        points=[({"query_size_frac": round(fraction, 2), "scheme": scheme},
                 leaf_spine_scenario(
                     scheme=scheme, config=config,
                     query_size_bytes=max(4000, int(fraction * reference_buffer)),
                     seed=seed, background_load=background_load,
                     name="fig22_heavy_load",
                 ))
                for fraction in query_size_fractions for scheme in schemes],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """QCT slowdowns of the queries, FCT slowdowns of the background."""
    return dict(
        keys,
        **slowdowns(result.flow_stats),
        drops=result.total_drops(),
    )
