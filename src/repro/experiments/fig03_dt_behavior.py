"""Figure 3: healthy vs anomalous dynamic behaviour of Dynamic Threshold.

Two queues on two different 10 Gbps ports share the buffer under DT.  Queue 1
is already congested (its length sits at the threshold).  A burst then arrives
at queue 2:

* **healthy** -- the burst arrives at a moderate rate, so as the threshold
  falls queue 1 can drain its excess occupancy in time and both queues
  converge to the same (fair) length;
* **anomalous** -- the burst arrives much faster than queue 1 can drain, the
  threshold collapses below queue 1's length, and queue 2 starts dropping
  packets *before* reaching its fair share ("drop before fair").

The run reports, per case, the final queue lengths, the fair share, and how
many burst bytes were dropped before queue 2 reached the threshold.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import Figure
from repro.scenario import ScenarioResult, ScenarioSpec, packet_burst_scenario
from repro.sim.units import GBPS, MB
from repro.telemetry import trace_to_series


def _two_queue_scenario(
    burst_rate_bps: float,
    alpha: float = 1.0,
    buffer_bytes: int = 1 * MB,
    port_rate_bps: float = 10 * GBPS,
    warmup: float = 400e-6,
    burst_duration: float = 400e-6,
) -> ScenarioSpec:
    """Congest queue 1, then hit queue 2 with a burst at ``burst_rate_bps``."""
    total = warmup + burst_duration
    return packet_burst_scenario(
        scheme="dt",
        scheme_kwargs={"alpha": alpha},
        stream_specs=[
            # Long-lived traffic keeps queue 1 at its threshold: arrivals at
            # 4x the port rate for the whole experiment.
            {"rate_bps": 4 * port_rate_bps, "port": 0, "duration": total},
            # The burst hits queue 2 after the warm-up.
            {"rate_bps": burst_rate_bps, "port": 1, "duration": burst_duration,
             "start_time": warmup},
        ],
        port_rate_bps=port_rate_bps,
        buffer_bytes=buffer_bytes,
        duration=total,
        name="fig03_dt_behavior",
    )


def points(scale: str = "small", seed: int = 0,
           cases: Optional[Dict[str, float]] = None) -> Figure:
    """The healthy and anomalous cases (the experiment is deterministic)."""
    del seed
    port_rate = 10 * GBPS
    if cases is None:
        cases = {"healthy": 1.2 * port_rate, "anomalous": 8 * port_rate}
    if scale == "bench":
        cases = dict(list(cases.items())[:2])
    return Figure(
        "fig03_dt_behavior",
        notes="DT, two queues, burst at queue 2 while queue 1 is congested",
        points=[({"case": case, "burst_rate_gbps": burst_rate / GBPS},
                 _two_queue_scenario(burst_rate_bps=burst_rate))
                for case, burst_rate in cases.items()],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """Final queue lengths, fair share and drops before queue 2's fair share."""
    switch = result.switch
    series = trace_to_series(switch.stats.queue_trace)
    q1 = series.get(0)
    q2 = series.get(1)
    # Steady-state fair queue length with two congested queues at alpha=1.
    fair_share = switch.buffer_size_bytes * 1.0 / (1.0 + 1.0 * 2)
    first_drop_len = switch.stats.first_drop_queue_length.get(1)
    return dict(
        keys,
        q1_final_bytes=q1.lengths[-1] if q1 and q1.lengths else 0,
        q2_final_bytes=q2.lengths[-1] if q2 and q2.lengths else 0,
        q2_max_bytes=q2.max_length if q2 else 0,
        fair_share_bytes=int(fair_share),
        q2_drops=switch.stats.per_queue_drops.get(1, 0),
        q2_first_drop_length=first_drop_len,
        drop_before_fair=bool(
            first_drop_len is not None and first_drop_len < 0.9 * fair_share
        ),
    )
