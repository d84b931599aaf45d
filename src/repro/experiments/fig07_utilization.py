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

from repro.experiments.common import ExperimentResult, get_scale
from repro.metrics.percentiles import percentile
from repro.scenario import leaf_spine_scenario, run_scenario


def _collect_utilizations(run_result) -> Dict[str, List[float]]:
    buffer_samples: List[float] = []
    bandwidth_samples: List[float] = []
    for node in run_result.topology.all_switches():
        buffer_samples.extend(node.stats.buffer_utilization_on_drop)
        bandwidth_samples.extend(node.stats.bandwidth_utilization_on_drop)
    return {"buffer": buffer_samples, "bandwidth": bandwidth_samples}


def run(scale: str = "small", seed: int = 0,
        alphas: Iterable[float] = (0.5, 1.0),
        loads: Optional[Iterable[float]] = None) -> ExperimentResult:
    """Percentiles of utilization-on-drop for the two sub-figures."""
    config = get_scale(scale)
    if loads is None:
        loads = (0.2, 0.4, 0.9) if scale != "bench" else (0.4,)
    query_size = 4 * config.fabric_buffer_bytes_per_port

    result = ExperimentResult(
        "fig07_utilization",
        notes="utilization sampled at packet-drop time, leaf-spine web-search",
    )

    # 7(a): buffer utilization for DT alpha in {0.5, 1} at 40% load.
    for alpha in alphas:
        run_result = run_scenario(leaf_spine_scenario(
            scheme="dt", config=config, query_size_bytes=query_size, seed=seed,
            background_load=0.4, scheme_kwargs={"alpha": alpha},
            name="fig07_utilization",
        ))
        samples = _collect_utilizations(run_result)["buffer"]
        result.add_row(
            subfigure="a_buffer",
            alpha=alpha,
            load=0.4,
            samples=len(samples),
            p50_util=percentile(samples, 50),
            p90_util=percentile(samples, 90),
            p99_util=percentile(samples, 99),
        )

    # 7(b): memory bandwidth utilization for several loads (DT alpha = 1).
    for load in loads:
        run_result = run_scenario(leaf_spine_scenario(
            scheme="dt", config=config, query_size_bytes=query_size, seed=seed,
            background_load=load, scheme_kwargs={"alpha": 1.0},
            name="fig07_utilization",
        ))
        samples = _collect_utilizations(run_result)["bandwidth"]
        result.add_row(
            subfigure="b_bandwidth",
            alpha=1.0,
            load=load,
            samples=len(samples),
            p50_util=percentile(samples, 50),
            p90_util=percentile(samples, 90),
            p99_util=percentile(samples, 99),
        )
    return result
