"""Figure 15: mitigation of the buffer-choking problem (strict priorities).

Query flows ride the high-priority queue (alpha = 8), background flows the
low-priority queue (alpha = 1), both congesting the *same* egress port under
strict-priority scheduling.  Ideally the low-priority background should not
affect the high-priority queries at all; with non-preemptive schemes it does,
because the slowly draining low-priority queue keeps the buffer occupied.
The harness reports QCT with and without the background for every scheme.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments.common import Figure, default_schemes, get_scale
from repro.experiments.fig06_anomalous import long_lived_background
from repro.scenario import ScenarioResult, single_switch_scenario


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           query_size_fractions: Optional[Iterable[float]] = None) -> Figure:
    """Every scheme at every query size, with and without the background."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (1.7,) if scale == "bench" else (1.5, 1.9, 2.3)
    figure = Figure(
        "fig15_buffer_choking",
        notes="strict priority; HP queries (alpha=8) vs LP long-lived background (alpha=1)",
        points=[],
    )
    for fraction in query_size_fractions:
        query_size = max(2000, int(fraction * config.switch_buffer_bytes))
        for scheme in schemes:
            common_kwargs = dict(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, include_background=False,
                queues_per_port=2, scheduler="strict",
                query_priority=0, alpha_overrides={0: 8.0, 1: 1.0},
                background_transport="cubic",
                name="fig15_buffer_choking",
            )
            with_bg = single_switch_scenario(
                extra_flows=long_lived_background(config, client=0,
                                                  min_size=200_000),
                **common_kwargs,
            )
            figure.points.append((
                {"query_size_frac": round(fraction, 2), "scheme": scheme},
                (with_bg, single_switch_scenario(**common_kwargs)),
            ))
    return figure


def row(keys: Dict[str, object],
        results: Tuple[ScenarioResult, ScenarioResult]) -> Dict[str, object]:
    """QCT of high-priority queries with vs without low-priority background."""
    with_bg, without_bg = results
    qct_with = with_bg.flow_stats.average_qct()
    qct_without = without_bg.flow_stats.average_qct()
    return dict(
        keys,
        qct_with_bg_ms=qct_with * 1e3,
        qct_without_bg_ms=qct_without * 1e3,
        p99_qct_with_bg_ms=with_bg.flow_stats.p99_qct() * 1e3,
        p99_qct_without_bg_ms=without_bg.flow_stats.p99_qct() * 1e3,
        degradation=qct_with / max(1e-9, qct_without),
        expelled=with_bg.switch_stats.expelled_packets,
    )
