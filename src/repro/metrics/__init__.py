"""Measurement helpers: flow/query completion times, slowdowns, CDFs."""

from repro.metrics.percentiles import cdf_points, mean, percentile, summarize
from repro.metrics.flows import (
    FlowRecord,
    FlowStats,
    QueryRecord,
    ideal_fct,
    slowdown,
)

__all__ = [
    "FlowRecord",
    "FlowStats",
    "QueryRecord",
    "cdf_points",
    "ideal_fct",
    "mean",
    "percentile",
    "slowdown",
    "summarize",
]
