"""The flow specification shared by all workload generators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_flow_spec_ids = itertools.count(1)


def reset_flow_ids() -> None:
    """Restart automatic flow-id assignment from 1.

    Flow ids feed the ECMP path hash, so two runs of the same scenario only
    take identical paths if they draw identical ids.  The experiment runner
    resets the counter before every run to keep runs reproducible no matter
    how many ran earlier in the same process.
    """
    global _flow_spec_ids
    _flow_spec_ids = itertools.count(1)


@dataclass(slots=True)
class FlowSpec:
    """A single flow to be injected into the network simulator.

    Attributes:
        src / dst: host indices.
        size_bytes: application bytes to transfer.
        start_time: simulation time at which the flow opens.
        priority: traffic class (0 = highest priority).
        query_id: queries (partition-aggregate requests) group several flows;
            the QCT of a query is the completion time of its last flow.
        flow_id: unique identifier (auto-assigned).
    """

    src: int
    dst: int
    size_bytes: int
    start_time: float
    priority: int = 0
    query_id: Optional[int] = None
    flow_id: int = field(default_factory=lambda: next(_flow_spec_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("flow size must be positive")
        if self.start_time < 0:
            raise ValueError("start time cannot be negative")
        if self.src == self.dst:
            raise ValueError("source and destination must differ")
        if self.priority < 0:
            raise ValueError(
                f"priority must be a non-negative class index, got {self.priority}")
