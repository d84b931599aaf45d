"""Figure 19: performance with all-reduce (double binary tree) background traffic.

Identical harness to Figure 18 but the background is one all-reduce round
generated with the double binary tree algorithm (every tree edge carries equal
sized reduce and broadcast flows).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.experiments import fig18_all_to_all
from repro.experiments.common import Figure

#: The rows read exactly as Figure 18's.
row = fig18_all_to_all.row


def points(scale: str = "small", seed: int = 0,
           schemes: Optional[List[str]] = None,
           flow_sizes_kb: Optional[Iterable[int]] = None) -> Figure:
    """Figure 18's points with all-reduce background traffic."""
    figure = fig18_all_to_all.points(
        scale=scale, seed=seed, schemes=schemes, flow_sizes_kb=flow_sizes_kb,
        background_kind="all_reduce",
    )
    figure.experiment = "fig19_all_reduce"
    return figure
