"""Figure 13: burst absorption on the software-switch testbed (QCT and FCT).

Incast query traffic (Poisson queries, size swept as a percentage of the
buffer) competes with web-search background traffic at 50% load on a single
shared-memory switch.  For every scheme the harness reports average and 99th
percentile QCT, the overall background FCT and the 99th percentile FCT of
small (<100 KB) background flows -- the four panels of Figure 13.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.experiments.common import (
    ExperimentResult,
    default_schemes,
    get_scale,
)
from repro.scenario import run_scenario, single_switch_scenario


def run(scale: str = "small", seed: int = 0,
        schemes: Optional[List[str]] = None,
        query_size_fractions: Optional[Iterable[float]] = None,
        background_load: float = 0.5) -> ExperimentResult:
    """QCT/FCT vs query size (as a fraction of the buffer) for every scheme."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (
            (0.6, 1.0) if scale == "bench" else (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
        )
    buffer_bytes = int(config.buffer_kb_per_port_per_gbps * 1024
                       * config.num_hosts * config.link_rate_bps / 1e9)

    result = ExperimentResult(
        "fig13_qct_fct",
        notes=f"single switch, background load {background_load:.0%}, "
              f"buffer {buffer_bytes // 1024} KB",
    )
    for fraction in query_size_fractions:
        query_size = max(2000, int(fraction * buffer_bytes))
        for scheme in schemes:
            spec = single_switch_scenario(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, background_load=background_load,
                name="fig13_qct_fct",
            )
            run_result = run_scenario(spec)
            stats = run_result.flow_stats
            result.add_row(
                query_size_frac=round(fraction, 2),
                scheme=scheme,
                avg_qct_ms=stats.average_qct() * 1e3,
                p99_qct_ms=stats.p99_qct() * 1e3,
                avg_bg_fct_ms=stats.average_fct(query_traffic=False) * 1e3,
                p99_small_bg_fct_ms=stats.p99_fct(query_traffic=False,
                                                  small_only=True) * 1e3,
                drops=run_result.switch_stats.dropped_packets,
                expelled=run_result.switch_stats.expelled_packets,
                completion=round(stats.completion_fraction(), 3),
            )
    return result
