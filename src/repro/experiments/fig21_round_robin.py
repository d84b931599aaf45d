"""Figure 21: the effectiveness of round-robin drop vs longest-queue drop.

Occamy expels from all over-allocated queues in round-robin order to avoid
the cost of tracking the longest queue.  This harness compares that choice to
the ablation that always drops from the longest over-allocated queue,
reporting QCT and FCT slowdowns for both variants -- the paper's result is
that they are within ~15% of each other.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.experiments.common import Figure, get_scale, slowdowns
from repro.scenario import ScenarioResult, leaf_spine_scenario


def points(scale: str = "small", seed: int = 0,
           query_size_fractions: Optional[Iterable[float]] = None,
           background_load: float = 0.4) -> Figure:
    """Round-robin vs longest-queue drop for Occamy at every query size."""
    config = get_scale(scale)
    if query_size_fractions is None:
        query_size_fractions = (0.6,) if scale == "bench" else (0.2, 0.4, 0.6, 0.8, 1.0)
    reference_buffer = config.fabric_buffer_bytes_per_port * 8
    return Figure(
        "fig21_round_robin",
        notes=f"Occamy victim policy ablation, background load {background_load:.0%}",
        points=[({"query_size_frac": round(fraction, 2), "victim_policy": label},
                 leaf_spine_scenario(
                     scheme=scheme, config=config,
                     query_size_bytes=max(4000, int(fraction * reference_buffer)),
                     seed=seed, background_load=background_load,
                     name="fig21_round_robin",
                 ))
                for fraction in query_size_fractions
                for scheme, label in (("occamy", "round_robin"),
                                      ("occamy_longest", "longest"))],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """QCT slowdowns of the queries, FCT slowdowns of the background."""
    return dict(
        keys,
        **slowdowns(result.flow_stats),
    )
