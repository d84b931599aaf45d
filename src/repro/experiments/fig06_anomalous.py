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

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import (
    ExperimentResult,
    ScenarioConfig,
    get_scale,
)
from repro.scenario import run_scenario, single_switch_scenario


def _long_lived_background(config: ScenarioConfig, hosts: List[int], client: int,
                           priority: int) -> List[Dict[str, object]]:
    """Long-lived low-priority flows from two hosts towards the query client."""
    senders = [h for h in hosts if h != client][:2]
    flows: List[Dict[str, object]] = []
    size = int(config.link_rate_bps / 8 * config.duration)  # enough to last the run
    for sender in senders:
        for _ in range(7):
            flows.append(dict(src=sender, dst=client,
                              size_bytes=max(size, 100_000),
                              start_time=0.0, priority=priority))
    return flows


def run(scale: str = "small", seed: int = 0,
        query_fractions: Optional[Iterable[float]] = None) -> ExperimentResult:
    """Average QCT with and without competing traffic, for both sub-figures."""
    config = get_scale(scale)
    if query_fractions is None:
        query_fractions = (0.3, 0.6, 1.0) if scale != "bench" else (0.5,)

    buffer_bytes = int(config.buffer_kb_per_port_per_gbps * 1024
                       * config.num_hosts * config.link_rate_bps / 1e9)
    result = ExperimentResult(
        "fig06_anomalous_behavior",
        notes="DT only; QCT degradation from buffer choking (a) and inter-port bursts (b)",
    )

    for fraction in query_fractions:
        query_size = int(fraction * buffer_bytes)

        # ---- (a) buffer choking: queries and background share a port -------
        hosts = list(range(config.num_hosts))
        client = hosts[0]
        lp_flows = _long_lived_background(config, hosts, client, priority=1)
        with_lp = run_scenario(single_switch_scenario(
            scheme="dt", config=config, query_size_bytes=query_size, seed=seed,
            include_background=False, queues_per_port=2, scheduler="strict",
            query_priority=0, alpha_overrides={0: 8.0, 1: 1.0},
            extra_flows=lp_flows, background_transport="cubic",
            name="fig06_buffer_choking",
        ))
        without_lp = run_scenario(single_switch_scenario(
            scheme="dt", config=config, query_size_bytes=query_size, seed=seed,
            include_background=False, queues_per_port=2, scheduler="strict",
            query_priority=0, alpha_overrides={0: 1.0, 1: 1.0},
            name="fig06_buffer_choking",
        ))
        result.add_row(
            subfigure="a_buffer_choking",
            query_size_frac=fraction,
            qct_with_competitor_ms=with_lp.flow_stats.average_qct() * 1e3,
            qct_without_competitor_ms=without_lp.flow_stats.average_qct() * 1e3,
            degradation=(
                with_lp.flow_stats.average_qct()
                / max(1e-9, without_lp.flow_stats.average_qct())
            ),
        )

        # ---- (b) inter-port influence: background on other ports -----------
        with_bg = run_scenario(single_switch_scenario(
            scheme="dt", config=config, query_size_bytes=query_size, seed=seed,
            background_load=0.6, include_background=True,
            name="fig06_inter_port",
        ))
        without_bg = run_scenario(single_switch_scenario(
            scheme="dt", config=config, query_size_bytes=query_size, seed=seed,
            include_background=False,
            name="fig06_inter_port",
        ))
        result.add_row(
            subfigure="b_inter_port",
            query_size_frac=fraction,
            qct_with_competitor_ms=with_bg.flow_stats.average_qct() * 1e3,
            qct_without_competitor_ms=without_bg.flow_stats.average_qct() * 1e3,
            degradation=(
                with_bg.flow_stats.average_qct()
                / max(1e-9, without_bg.flow_stats.average_qct())
            ),
        )
    return result
