"""Figure 12: burst absorption (loss rate vs burst size) for Occamy and DT.

Same scenario as Figure 11 (long-lived traffic keeping queue 1 congested, a
burst arriving at queue 2), but sweeping the burst size and the alpha
parameter.  The paper's observations to reproduce:

1. for the same alpha, Occamy starts dropping at substantially larger burst
   sizes than DT (~57 % more at alpha = 4);
2. Occamy's burst absorption *improves* as alpha grows (more efficient use of
   the buffer), whereas DT's degrades (less headroom reserved and no way to
   reclaim it).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.fig11_queue_evolution import drive_burst_scenario
from repro.sim.units import KB, MB


def loss_rate_for(scheme: str, alpha: float, burst_bytes: int,
                  buffer_bytes: int = 2 * MB) -> float:
    """Loss rate of the bursty traffic for one configuration."""
    switch = drive_burst_scenario(scheme, alpha, burst_bytes=burst_bytes,
                                  buffer_bytes=buffer_bytes).switch
    q2 = switch.queue_for(1, 0)
    total = q2.enqueued_packets + q2.dropped_packets
    if total == 0:
        return 0.0
    # Expelled packets belong to the over-allocated queue (queue 1); burst
    # losses are admission drops at queue 2.
    return q2.dropped_packets / total


def run(scale: str = "small", seed: int = 0,
        alphas: Tuple[float, ...] = (1.0, 2.0, 4.0),
        burst_sizes_kb: Optional[Iterable[int]] = None) -> ExperimentResult:
    """Loss rate of the bursty traffic for every (scheme, alpha, burst size)."""
    del seed  # deterministic experiment
    if burst_sizes_kb is None:
        burst_sizes_kb = (300, 400, 500, 600, 700, 800)
    if scale == "bench":
        burst_sizes_kb = (400, 800)
        alphas = (1.0, 4.0)

    result = ExperimentResult(
        "fig12_burst_absorption",
        notes="loss rate of bursty traffic; 2MB buffer, q1 congested by long-lived traffic",
    )
    for alpha in alphas:
        for burst_kb in burst_sizes_kb:
            for scheme in ("occamy", "dt"):
                rate = loss_rate_for(scheme, alpha, burst_kb * KB)
                result.add_row(
                    alpha=alpha,
                    burst_kb=burst_kb,
                    scheme=scheme,
                    loss_rate=round(rate, 4),
                )
    return result
