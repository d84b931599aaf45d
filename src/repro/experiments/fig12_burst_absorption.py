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

from typing import Dict, Iterable, Optional

from repro.experiments.common import Figure
from repro.experiments.fig11_queue_evolution import burst_scenario
from repro.scenario import ScenarioResult
from repro.sim.units import KB


def points(scale: str = "small", seed: int = 0,
           alphas: Optional[Iterable[float]] = None,
           burst_sizes_kb: Optional[Iterable[int]] = None) -> Figure:
    """Every (alpha, burst size, scheme) (the experiment is deterministic)."""
    del seed
    if alphas is None:
        alphas = (1.0, 4.0) if scale == "bench" else (1.0, 2.0, 4.0)
    if burst_sizes_kb is None:
        burst_sizes_kb = ((400, 800) if scale == "bench"
                          else (300, 400, 500, 600, 700, 800))
    return Figure(
        "fig12_burst_absorption",
        notes="loss rate of bursty traffic; 2MB buffer, q1 congested by long-lived traffic",
        points=[({"alpha": alpha, "burst_kb": burst_kb, "scheme": scheme},
                 burst_scenario(scheme, alpha, burst_bytes=burst_kb * KB))
                for alpha in alphas for burst_kb in burst_sizes_kb
                for scheme in ("occamy", "dt")],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """Loss rate of the bursty traffic.

    Expelled packets belong to the over-allocated queue (queue 1); burst
    losses are admission drops at queue 2.
    """
    q2 = result.switch.queue_for(1, 0)
    total = q2.enqueued_packets + q2.dropped_packets
    rate = q2.dropped_packets / total if total else 0.0
    return dict(keys, loss_rate=round(rate, 4))
