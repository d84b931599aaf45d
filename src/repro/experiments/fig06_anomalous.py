"""Figure 6: QCT degradation caused by DT's anomalous behaviour.

Two sub-experiments, both DT-only (they motivate the need for Occamy):

* **6(a) buffer choking** -- high-priority incast queries share an egress port
  with low-priority long-lived background flows under strict-priority
  scheduling.  DT is configured so that the query traffic deserves the same
  buffer with or without the background (alpha = 8 with background, 1
  without), yet the measured QCT degrades by several x with background because
  the slowly draining low-priority queues hold the buffer hostage.
* **6(b) inter-port influence** -- the same comparison but with the background
  congesting *different* ports, isolating the effect of a high arrival rate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments.common import Figure, ScenarioConfig, get_scale
from repro.scenario import ScenarioResult, single_switch_scenario


def long_lived_background(config: ScenarioConfig, client: int,
                          min_size: int = 100_000) -> List[Dict[str, object]]:
    """Long-lived low-priority flows from two hosts towards the query client."""
    senders = [h for h in range(config.num_hosts) if h != client][:2]
    # Enough to last the run.
    size = max(min_size, int(config.link_rate_bps / 8 * config.duration))
    return [dict(src=sender, dst=client, size_bytes=size, start_time=0.0,
                 priority=1)
            for sender in senders for _ in range(7)]


def points(scale: str = "small", seed: int = 0,
           query_fractions: Optional[Iterable[float]] = None) -> Figure:
    """QCT with and without competing traffic, for both sub-figures."""
    config = get_scale(scale)
    if query_fractions is None:
        query_fractions = (0.3, 0.6, 1.0) if scale != "bench" else (0.5,)
    figure = Figure(
        "fig06_anomalous_behavior",
        notes="DT only; QCT degradation from buffer choking (a) and inter-port bursts (b)",
        points=[],
    )
    for fraction in query_fractions:
        base = dict(scheme="dt", config=config, seed=seed,
                    query_size_bytes=int(fraction * config.switch_buffer_bytes))

        # ---- (a) buffer choking: queries and background share a port -------
        choking = dict(base, include_background=False, queues_per_port=2,
                       scheduler="strict", query_priority=0,
                       name="fig06_buffer_choking")
        figure.points.append((
            {"subfigure": "a_buffer_choking", "query_size_frac": fraction},
            (single_switch_scenario(
                alpha_overrides={0: 8.0, 1: 1.0},
                extra_flows=long_lived_background(config, client=0),
                background_transport="cubic", **choking),
             single_switch_scenario(alpha_overrides={0: 1.0, 1: 1.0}, **choking)),
        ))

        # ---- (b) inter-port influence: background on other ports -----------
        inter_port = dict(base, name="fig06_inter_port")
        figure.points.append((
            {"subfigure": "b_inter_port", "query_size_frac": fraction},
            (single_switch_scenario(background_load=0.6, include_background=True,
                                    **inter_port),
             single_switch_scenario(include_background=False, **inter_port)),
        ))
    return figure


def row(keys: Dict[str, object],
        results: Tuple[ScenarioResult, ScenarioResult]) -> Dict[str, object]:
    """Average QCT with and without the competitor, and their ratio."""
    with_competitor, without_competitor = results
    qct_with = with_competitor.flow_stats.average_qct()
    qct_without = without_competitor.flow_stats.average_qct()
    return dict(
        keys,
        qct_with_competitor_ms=qct_with * 1e3,
        qct_without_competitor_ms=qct_without * 1e3,
        degradation=qct_with / max(1e-9, qct_without),
    )
