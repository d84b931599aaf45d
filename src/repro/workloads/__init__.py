"""Datacenter workload generators used by the paper's evaluation.

All generators produce lists of :class:`FlowSpec` (who sends how many bytes to
whom, starting when, in which traffic class), which the network simulator
turns into transport connections.
"""

from repro.workloads.spec import FlowSpec, number_flows
from repro.workloads.distributions import (
    DATA_MINING_DISTRIBUTION,
    WEB_SEARCH_DISTRIBUTION,
    EmpiricalDistribution,
    flows_per_second_for_load,
)
from repro.workloads.poisson import PoissonFlowGenerator
from repro.workloads.incast import IncastQueryGenerator
from repro.workloads.collective import all_reduce_flows, all_to_all_flows, double_binary_tree
from repro.workloads.burst import burst_arrivals, constant_rate_arrivals
from repro.workloads.hotspot import HotspotFlowGenerator
from repro.workloads.permutation import permutation_flows, random_derangement


def reset_workload_ids() -> None:
    """Does nothing: every run numbers its own flows and queries.

    Kept for callers written when ids came from process-wide counters.
    """

__all__ = [
    "DATA_MINING_DISTRIBUTION",
    "EmpiricalDistribution",
    "FlowSpec",
    "HotspotFlowGenerator",
    "IncastQueryGenerator",
    "PoissonFlowGenerator",
    "WEB_SEARCH_DISTRIBUTION",
    "all_reduce_flows",
    "all_to_all_flows",
    "burst_arrivals",
    "constant_rate_arrivals",
    "double_binary_tree",
    "flows_per_second_for_load",
    "number_flows",
    "permutation_flows",
    "random_derangement",
    "reset_workload_ids",
]
