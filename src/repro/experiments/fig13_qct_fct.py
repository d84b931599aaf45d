"""Figure 13: burst absorption on the software-switch testbed (QCT and FCT).

Incast query traffic (Poisson queries, size swept as a percentage of the
buffer) competes with web-search background traffic at 50% load on a single
shared-memory switch.  For every scheme the harness reports average and 99th
percentile QCT, the overall background FCT and the 99th percentile FCT of
small (<100 KB) background flows -- the four panels of Figure 13.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import Figure, default_schemes, get_scale
from repro.scenario import ScenarioResult, single_switch_scenario


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           query_size_fractions: Optional[Iterable[float]] = None,
           background_load: float = 0.5) -> Figure:
    """Every scheme at every query size (as a fraction of the buffer)."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (
            (0.6, 1.0) if scale == "bench" else (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
        )
    buffer_bytes = config.switch_buffer_bytes
    return Figure(
        "fig13_qct_fct",
        notes=f"single switch, background load {background_load:.0%}, "
              f"buffer {buffer_bytes // 1024} KB",
        points=[({"query_size_frac": round(fraction, 2), "scheme": scheme},
                 single_switch_scenario(
                     scheme=scheme, config=config,
                     query_size_bytes=max(2000, int(fraction * buffer_bytes)),
                     seed=seed, background_load=background_load,
                     name="fig13_qct_fct",
                 ))
                for fraction in query_size_fractions for scheme in schemes],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """QCT (average, p99) and background FCT (average, p99 of small flows)."""
    stats = result.flow_stats
    return dict(
        keys,
        avg_qct_ms=stats.average_qct() * 1e3,
        p99_qct_ms=stats.p99_qct() * 1e3,
        avg_bg_fct_ms=stats.average_fct(query_traffic=False) * 1e3,
        p99_small_bg_fct_ms=stats.p99_fct(query_traffic=False,
                                          small_only=True) * 1e3,
        drops=result.switch_stats.dropped_packets,
        expelled=result.switch_stats.expelled_packets,
        completion=round(stats.completion_fraction(), 3),
    )
