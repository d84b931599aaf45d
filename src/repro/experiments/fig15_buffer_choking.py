"""Figure 15: mitigation of the buffer-choking problem (strict priorities).

Query flows ride the high-priority queue (alpha = 8), background flows the
low-priority queue (alpha = 1), both congesting the *same* egress port under
strict-priority scheduling.  Ideally the low-priority background should not
affect the high-priority queries at all; with non-preemptive schemes it does,
because the slowly draining low-priority queue keeps the buffer occupied.
The harness reports QCT with and without the background for every scheme.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import (
    ExperimentResult,
    ScenarioConfig,
    default_schemes,
    get_scale,
)
from repro.scenario import run_scenario, single_switch_scenario


def _low_priority_background(config: ScenarioConfig,
                             client: int) -> List[Dict[str, object]]:
    """Long-lived low-priority flows converging on the query client's port."""
    senders = [h for h in range(config.num_hosts) if h != client][:2]
    size = max(200_000, int(config.link_rate_bps / 8 * config.duration))
    flows: List[Dict[str, object]] = []
    for sender in senders:
        for _ in range(7):
            flows.append(dict(src=sender, dst=client, size_bytes=size,
                              start_time=0.0, priority=1))
    return flows


def run(scale: str = "small", seed: int = 0,
        schemes: Optional[List[str]] = None,
        query_size_fractions: Optional[Iterable[float]] = None) -> ExperimentResult:
    """QCT of high-priority queries with vs without low-priority background."""
    config = get_scale(scale)
    schemes = schemes or default_schemes()
    if query_size_fractions is None:
        query_size_fractions = (1.7,) if scale == "bench" else (1.5, 1.9, 2.3)
    buffer_bytes = int(config.buffer_kb_per_port_per_gbps * 1024
                       * config.num_hosts * config.link_rate_bps / 1e9)

    result = ExperimentResult(
        "fig15_buffer_choking",
        notes="strict priority; HP queries (alpha=8) vs LP long-lived background (alpha=1)",
    )
    client = 0
    for fraction in query_size_fractions:
        query_size = max(2000, int(fraction * buffer_bytes))
        for scheme in schemes:
            common_kwargs = dict(
                scheme=scheme, config=config, query_size_bytes=query_size,
                seed=seed, include_background=False,
                queues_per_port=2, scheduler="strict",
                query_priority=0, alpha_overrides={0: 8.0, 1: 1.0},
                background_transport="cubic",
                name="fig15_buffer_choking",
            )
            with_bg = run_scenario(single_switch_scenario(
                extra_flows=_low_priority_background(config, client),
                **common_kwargs,
            ))
            without_bg = run_scenario(single_switch_scenario(**common_kwargs))
            qct_with = with_bg.flow_stats.average_qct()
            qct_without = without_bg.flow_stats.average_qct()
            result.add_row(
                query_size_frac=round(fraction, 2),
                scheme=scheme,
                qct_with_bg_ms=qct_with * 1e3,
                qct_without_bg_ms=qct_without * 1e3,
                p99_qct_with_bg_ms=with_bg.flow_stats.p99_qct() * 1e3,
                p99_qct_without_bg_ms=without_bg.flow_stats.p99_qct() * 1e3,
                degradation=qct_with / max(1e-9, qct_without),
                expelled=with_bg.switch_stats.expelled_packets,
            )
    return result
