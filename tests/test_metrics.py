"""Tests for the metrics package (percentiles, FCT/QCT, time series)."""

import pytest

from repro.metrics import (
    FlowRecord,
    FlowStats,
    cdf_points,
    ideal_fct,
    mean,
    percentile,
    slowdown,
    summarize,
)
from repro.switchsim.stats import QueueTraceSample
from repro.telemetry import trace_to_series


class TestPercentiles:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0

    def test_percentile_interpolation(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == pytest.approx(50.5)
        assert percentile(data, 99) == pytest.approx(99.01)
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100

    def test_percentile_edges(self):
        assert percentile([], 50) == 0.0
        assert percentile([7], 99) == 7
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["max"] == 3.0
        assert summary["p50"] == 2.0

    def test_cdf_points_monotone_and_ends_at_one(self):
        points = cdf_points([5, 1, 3, 2, 4], num_points=10)
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs[-1] == 1.0
        assert all(0 < p <= 1 for p in probs)

    def test_cdf_points_empty_and_validation(self):
        assert cdf_points([]) == []
        with pytest.raises(ValueError):
            cdf_points([1, 2], num_points=0)

    def test_cdf_points_count_pinned_for_awkward_n(self):
        # Regression: the old integer stride (max(1, n // num_points)) made
        # the point count swing wildly with n (n=199 emitted 199 points,
        # n=250 emitted 126).  The index schedule now hits num_points evenly
        # whenever n >= num_points, and n otherwise.
        for n, num_points in [(101, 100), (150, 100), (199, 100), (250, 100),
                              (1000, 100), (100, 100), (7, 100), (1, 5)]:
            points = cdf_points(range(n), num_points=num_points)
            assert len(points) == min(n, num_points), (n, num_points)

    def test_cdf_points_always_end_at_max_and_prob_one(self):
        for n in (3, 101, 250):
            data = [float(v) for v in range(n)]
            points = cdf_points(data, num_points=10)
            assert points[-1] == (max(data), 1.0)

    def test_cdf_points_anchor_both_tails(self):
        # The downsampled CDF must keep the sample minimum (left anchor) as
        # well as the maximum, whatever the n : num_points ratio.
        for n, num_points in [(1000, 100), (101, 100), (5, 2), (1, 5)]:
            points = cdf_points(range(n), num_points=num_points)
            assert points[-1][0] == n - 1
            if len(points) > 1:
                assert points[0][0] == 0

    def test_cdf_points_sample_tail_evenly(self):
        # 250 values into 100 points: consecutive ranks may differ by at
        # most ceil(n / num_points), including in the tail.
        points = cdf_points(range(250), num_points=100)
        ranks = [int(p * 250) for _, p in points]
        gaps = [b - a for a, b in zip(ranks, ranks[1:], strict=False)]
        assert max(gaps) <= 3
        assert min(gaps) >= 1


class TestFlowMetrics:
    def test_ideal_fct_includes_rtt_and_serialization(self):
        fct = ideal_fct(size_bytes=15000, bottleneck_bps=10e9, base_rtt=40e-6)
        assert fct > 40e-6
        assert fct == pytest.approx(40e-6 + (15000 + 10 * 40) * 8 / 10e9)

    def test_ideal_fct_validation(self):
        with pytest.raises(ValueError):
            ideal_fct(0, 10e9, 1e-5)
        with pytest.raises(ValueError):
            ideal_fct(1000, 0, 1e-5)

    def test_slowdown(self):
        assert slowdown(2.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            slowdown(1.0, 0.0)

    def test_flow_record_properties(self):
        record = FlowRecord(flow_id=1, src=0, dst=1, size_bytes=50_000, start_time=0.0)
        assert record.is_small
        assert not record.completed
        with pytest.raises(ValueError):
            _ = record.fct
        record.finish_time = 0.01
        assert record.fct == pytest.approx(0.01)

    def test_query_completion_requires_all_flows(self):
        stats = FlowStats(bottleneck_bps=10e9, base_rtt=40e-6)
        for fid in (1, 2):
            stats.register_flow(FlowRecord(flow_id=fid, src=fid, dst=0,
                                           size_bytes=10_000, start_time=0.0,
                                           query_id=7))
        stats.flow_finished(1, 0.001)
        assert not stats.queries[7].completed
        stats.flow_finished(2, 0.003)
        assert stats.queries[7].completed
        assert stats.queries[7].qct == pytest.approx(0.003)
        assert stats.average_qct() == pytest.approx(0.003)

    def test_flow_filters(self):
        stats = FlowStats(bottleneck_bps=10e9, base_rtt=40e-6)
        stats.register_flow(FlowRecord(1, 0, 1, 50_000, 0.0, query_id=1))
        stats.register_flow(FlowRecord(2, 1, 0, 500_000, 0.0))
        stats.flow_finished(1, 0.002)
        stats.flow_finished(2, 0.004)
        assert len(stats.completed_flows(query_traffic=True)) == 1
        assert len(stats.completed_flows(query_traffic=False)) == 1
        assert len(stats.completed_flows(small_only=True)) == 1
        assert stats.completion_fraction() == 1.0

    def test_slowdowns_at_least_one_for_reasonable_fct(self):
        stats = FlowStats(bottleneck_bps=10e9, base_rtt=40e-6)
        stats.register_flow(FlowRecord(1, 0, 1, 100_000, 0.0))
        stats.flow_finished(1, 0.01)
        assert stats.fct_slowdowns()[0] > 1.0


class TestTimeSeries:
    def test_trace_to_series_groups_by_queue(self):
        trace = [
            QueueTraceSample(0.0, 0, 100, 500.0),
            QueueTraceSample(1.0, 1, 200, 400.0),
            QueueTraceSample(2.0, 0, 300, 300.0),
        ]
        series = trace_to_series(trace)
        assert set(series) == {0, 1}
        assert series[0].lengths == [100, 300]
        assert series[0].max_length == 300

    def test_length_at_step_interpolation(self):
        trace = [QueueTraceSample(t, 0, int(t * 100), 0.0) for t in (0.0, 1.0, 2.0)]
        series = trace_to_series(trace)[0]
        assert series.length_at(0.5) == 0
        assert series.length_at(1.5) == 100
        assert series.length_at(5.0) == 200

    def test_sample_every(self):
        trace = [QueueTraceSample(t / 10, 0, t, 0.0) for t in range(10)]
        series = trace_to_series(trace)[0]
        samples = series.sample_every(0.2)
        assert len(samples) == 5
        with pytest.raises(ValueError):
            series.sample_every(0)
