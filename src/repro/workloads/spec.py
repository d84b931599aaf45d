"""The flow specification shared by all workload generators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional


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
        flow_id: unique identifier within its run; ``None`` until
            :func:`number_flows` gives it one.
    """

    src: int
    dst: int
    size_bytes: int
    start_time: float
    priority: int = 0
    query_id: Optional[int] = None
    flow_id: Optional[int] = None

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


def number_flows(flows: List[FlowSpec],
                 ids: Optional[Iterator[int]] = None) -> List[FlowSpec]:
    """Give every unnumbered flow the next id from ``ids``, in list order.

    ``ids`` defaults to a fresh 1, 2, ... count; flows that already carry an
    id keep it.  Flow ids feed the ECMP path hash, so numbering per run
    (``ScenarioRunner.flow_order`` shares one count across a run's
    workloads) makes a run's paths a function of its own traffic alone.
    """
    if ids is None:
        ids = itertools.count(1)
    for flow in flows:
        if flow.flow_id is None:
            flow.flow_id = next(ids)
    return flows
