"""Figure 7: buffer and memory-bandwidth utilization CDFs under DT.

7(a): CDF of buffer utilization sampled at packet-drop time with DT alpha in
{0.5, 1} -- DT leaves a large fraction of the (scarce) buffer unused even when
it is dropping packets.

7(b): CDF of memory-bandwidth utilization at packet-drop time for different
network loads -- even at high load, a sizeable fraction of the memory
bandwidth is idle, which is the redundant bandwidth Occamy exploits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import Figure, get_scale
from repro.metrics.percentiles import percentile
from repro.scenario import ScenarioResult, leaf_spine_scenario


def points(scale: str = "small", seed: int = 0,
           alphas: Iterable[float] = (0.5, 1.0),
           loads: Optional[Iterable[float]] = None) -> Figure:
    """DT at each alpha (7a, 40% load), then at each load (7b, alpha 1)."""
    config = get_scale(scale)
    if loads is None:
        loads = (0.2, 0.4, 0.9) if scale != "bench" else (0.4,)
    query_size = 4 * config.fabric_buffer_bytes_per_port

    def point(subfigure: str, alpha: float, load: float):
        return ({"subfigure": subfigure, "alpha": alpha, "load": load},
                leaf_spine_scenario(
                    scheme="dt", config=config, query_size_bytes=query_size,
                    seed=seed, background_load=load,
                    scheme_kwargs={"alpha": alpha}, name="fig07_utilization",
                ))

    return Figure(
        "fig07_utilization",
        notes="utilization sampled at packet-drop time, leaf-spine web-search",
        # 7(a): buffer utilization for DT alpha in {0.5, 1} at 40% load;
        # 7(b): memory bandwidth utilization for several loads (alpha = 1).
        points=[point("a_buffer", alpha, 0.4) for alpha in alphas]
        + [point("b_bandwidth", 1.0, load) for load in loads],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """Percentiles of the utilization sampled at every drop of the run.

    A run that drops nothing has no samples, and no percentiles (``None``).
    """
    samples: List[float] = []
    for node in result.topology.all_switches():
        if keys["subfigure"] == "a_buffer":
            samples.extend(node.stats.buffer_utilization_on_drop)
        else:
            samples.extend(node.stats.bandwidth_utilization_on_drop)
    return dict(
        keys,
        samples=len(samples),
        **{f"p{q}_util": percentile(samples, q) if samples else None
           for q in (50, 90, 99)},
    )
