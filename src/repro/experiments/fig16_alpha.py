"""Figure 16: impact of the alpha parameter on DT and Occamy.

Same two-service-queue DRR scenario as Figure 14, but sweeping alpha for both
DT and Occamy.  The paper's finding: DT performs best around alpha = 1-2 and
degrades for larger alpha (anomalous behaviour) or smaller alpha
(inefficiency), while Occamy keeps improving up to alpha = 4-8 because
expulsion removes the downside of a large alpha.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.experiments.common import Figure, get_scale
from repro.scenario import ScenarioResult, single_switch_scenario


def points(scale: str = "small", seed: int = 0,
           alphas: Optional[Iterable[float]] = None,
           query_size_fractions: Optional[Iterable[float]] = None,
           background_load: float = 0.5) -> Figure:
    """DT and Occamy at every (query size, alpha)."""
    config = get_scale(scale)
    if alphas is None:
        alphas = (1.0, 8.0) if scale == "bench" else (0.5, 1.0, 2.0, 4.0, 8.0)
    if query_size_fractions is None:
        query_size_fractions = (1.2,) if scale == "bench" else (1.0, 1.2, 1.4, 1.6, 1.8)
    return Figure(
        "fig16_alpha",
        notes="p99 QCT, 2 DRR queues, background load "
              f"{background_load:.0%}; alpha swept for DT and Occamy",
        points=[({"query_size_frac": round(fraction, 2), "alpha": alpha,
                  "scheme": scheme},
                 single_switch_scenario(
                     scheme=scheme, config=config,
                     query_size_bytes=max(
                         2000, int(fraction * config.switch_buffer_bytes)),
                     seed=seed, background_load=background_load,
                     queues_per_port=2, scheduler="drr",
                     query_priority=0, background_priority=1,
                     scheme_kwargs={"alpha": alpha},
                     name="fig16_alpha",
                 ))
                for fraction in query_size_fractions for alpha in alphas
                for scheme in ("dt", "occamy")],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """Average / p99 QCT and drops."""
    stats = result.flow_stats
    return dict(
        keys,
        avg_qct_ms=stats.average_qct() * 1e3,
        p99_qct_ms=stats.p99_qct() * 1e3,
        drops=result.switch_stats.dropped_packets,
    )
