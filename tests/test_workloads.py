"""Tests for the workload generators."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (ScenarioSpec, SchemeSpec, TopologySpec,
                            WorkloadSpec)
from repro.scenario.runner import ScenarioRunner
from repro.sim.rng import SeededRNG
from repro.workloads import (
    DATA_MINING_DISTRIBUTION,
    EmpiricalDistribution,
    FlowSpec,
    HotspotFlowGenerator,
    IncastQueryGenerator,
    PoissonFlowGenerator,
    WEB_SEARCH_DISTRIBUTION,
    all_reduce_flows,
    all_to_all_flows,
    burst_arrivals,
    constant_rate_arrivals,
    double_binary_tree,
    flows_per_second_for_load,
    permutation_flows,
    random_derangement,
)
from repro.workloads.burst import burst_schedule, constant_rate_schedule


class TestFlowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec(src=0, dst=1, size_bytes=0, start_time=0.0)
        with pytest.raises(ValueError):
            FlowSpec(src=0, dst=0, size_bytes=100, start_time=0.0)
        with pytest.raises(ValueError):
            FlowSpec(src=0, dst=1, size_bytes=100, start_time=-1.0)
        # A priority is a class index; -1 would select the previous port's
        # queue on the switch.
        with pytest.raises(ValueError, match="priority"):
            FlowSpec(src=0, dst=1, size_bytes=100, start_time=0.0, priority=-1)

    def test_unique_flow_ids(self):
        # A run numbers its flows 1..n in generation order (workload-list
        # order, then each workload's own order) and gives every incast
        # workload query ids from one count.
        def incast(client_index):
            return WorkloadSpec("incast", {
                "query_size_bytes": 6000, "fanout": 3, "arrival": "paced",
                "num_queries": 3, "client_index": client_index},
                rng_label=f"query{client_index}")

        spec = ScenarioSpec(
            name="ids", scheme=SchemeSpec("dt"),
            topology=TopologySpec("single_switch", {"num_hosts": 4}),
            workloads=[incast(0),
                       WorkloadSpec("all_to_all", {"flow_size_bytes": 1000}),
                       incast(1)],
            duration=0.01)
        runner = ScenarioRunner()
        for _ in range(2):  # nothing carries over from one run to the next
            # Injection order: query flows first, then the rest.
            first, second, mesh = (flows for _, flows in
                                   runner.flow_order(spec, runner.build(spec)))
            assert [f.flow_id for f in first] == list(range(1, 10))
            assert [f.flow_id for f in mesh] == list(range(10, 22))
            assert [f.flow_id for f in second] == list(range(22, 31))
            assert [f.query_id for f in first] == [1] * 3 + [2] * 3 + [3] * 3
            assert [f.query_id for f in second] == [4] * 3 + [5] * 3 + [6] * 3


class TestDistributions:
    def test_builtin_distributions_sample_in_range(self):
        rng = SeededRNG(1)
        for dist in (WEB_SEARCH_DISTRIBUTION, DATA_MINING_DISTRIBUTION):
            samples = [dist.sample(rng) for _ in range(500)]
            assert all(s >= 1 for s in samples)
            assert max(samples) <= dist._sizes[-1]

    def test_websearch_mean_order_of_magnitude(self):
        # The web-search workload's mean flow size is on the order of 1 MB.
        assert 2e5 < WEB_SEARCH_DISTRIBUTION.mean() < 4e6

    def test_sampling_is_deterministic_per_seed(self):
        a = [WEB_SEARCH_DISTRIBUTION.sample(SeededRNG(5)) for _ in range(1)]
        b = [WEB_SEARCH_DISTRIBUTION.sample(SeededRNG(5)) for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([(100, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalDistribution([(100, 0.5), (50, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalDistribution([(50, 0.5), (100, 0.9)])

    def test_percentiles(self):
        dist = EmpiricalDistribution([(10, 0.5), (100, 1.0)])
        assert dist.percentiles([0.0, 0.5, 1.0]) == [10, 10, 100]
        with pytest.raises(ValueError):
            dist.percentiles([1.5])

    def test_percentiles_interpolate_within_segments(self):
        # Regression: percentiles used to return raw bucket edges
        # (bisect_left), disagreeing with sample()'s inverse transform
        # everywhere strictly inside a segment.
        dist = EmpiricalDistribution([(10, 0.5), (100, 1.0)])
        assert dist.percentiles([0.75]) == [pytest.approx(55.0)]
        assert dist.percentiles([0.9]) == [pytest.approx(82.0)]
        # The same probabilities through the published web-search CDF.
        p50, p99 = WEB_SEARCH_DISTRIBUTION.percentiles([0.5, 0.99])
        assert 33_000 < p50 < 53_000  # inside the 0.40-0.53 segment
        assert 6_667_000 < p99 < 20_000_000

    def test_percentiles_match_sampler_inverse_transform(self):
        # percentiles() and sample() must evaluate the same inverse CDF:
        # a sample drawn at u equals the (int-truncated) percentile at u.
        for dist in (WEB_SEARCH_DISTRIBUTION, DATA_MINING_DISTRIBUTION):
            rng, probe = SeededRNG(11), SeededRNG(11)
            for _ in range(200):
                u = probe.random()
                assert dist.sample(rng) == max(1, int(dist.quantile(u)))

    def test_sampled_mean_matches_analytic_mean(self):
        # Regression for the first-segment convention: mean() is the exact
        # integral of the sampler's inverse CDF, so a large-sample mean must
        # converge to it for both published distributions.
        for dist, seed in ((WEB_SEARCH_DISTRIBUTION, 7),
                           (DATA_MINING_DISTRIBUTION, 8)):
            rng = SeededRNG(seed)
            n = 200_000
            sampled = sum(dist.sample(rng) for _ in range(n)) / n
            assert sampled == pytest.approx(dist.mean(), rel=0.02)

    def test_first_segment_is_point_mass_at_minimum_size(self):
        # All mass below the first CDF point collapses onto sizes[0] in
        # sample(), percentiles() *and* mean()'s first-segment term alike.
        dist = EmpiricalDistribution([(1000, 0.25), (2000, 1.0)])
        assert dist.percentiles([0.0, 0.1, 0.25]) == [1000, 1000, 1000]
        assert dist.mean() == pytest.approx(0.25 * 1000 + 0.75 * 1500)

    def test_flows_per_second_for_load(self):
        rate = flows_per_second_for_load(0.5, 10e9, 1e6, num_senders=10)
        # Aggregate bytes/s = 0.5 * 1.25e9; per sender = 62.5e6; /1e6 = 62.5.
        assert rate == pytest.approx(62.5)
        with pytest.raises(ValueError):
            flows_per_second_for_load(0, 10e9, 1e6)


class TestPoissonGenerator:
    def test_generates_flows_within_window(self):
        gen = PoissonFlowGenerator(list(range(8)), WEB_SEARCH_DISTRIBUTION,
                                   flows_per_second=2000, rng=SeededRNG(1))
        flows = gen.generate(duration=0.05)
        assert flows
        assert all(0 <= f.start_time < 0.05 for f in flows)
        assert all(f.src != f.dst for f in flows)

    def test_rate_roughly_matches(self):
        gen = PoissonFlowGenerator(list(range(4)), WEB_SEARCH_DISTRIBUTION,
                                   flows_per_second=5000, rng=SeededRNG(2))
        flows = gen.generate(duration=0.1)
        assert len(flows) == pytest.approx(500, rel=0.2)

    def test_receiver_restriction(self):
        gen = PoissonFlowGenerator(list(range(8)), WEB_SEARCH_DISTRIBUTION,
                                   flows_per_second=1000, rng=SeededRNG(3),
                                   receivers=[7])
        flows = gen.generate(duration=0.05)
        assert all(f.dst == 7 for f in flows)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonFlowGenerator([0], WEB_SEARCH_DISTRIBUTION, 100, SeededRNG(0))
        gen = PoissonFlowGenerator([0, 1], WEB_SEARCH_DISTRIBUTION, 100, SeededRNG(0))
        with pytest.raises(ValueError):
            gen.generate(duration=0)


class TestIncastGenerator:
    def test_query_structure(self):
        gen = IncastQueryGenerator(clients=[0], servers=list(range(1, 9)),
                                   query_size_bytes=80_000, fanout=8,
                                   queries_per_second=100, rng=SeededRNG(1))
        flows = gen.make_query(client=0, start_time=0.01)
        assert len(flows) == 8
        assert all(f.dst == 0 for f in flows)
        assert all(f.query_id == flows[0].query_id for f in flows)
        assert sum(f.size_bytes for f in flows) == 80_000
        assert len({f.src for f in flows}) == 8

    def test_fanout_larger_than_server_pool_reuses_servers(self):
        gen = IncastQueryGenerator(clients=[0], servers=[1, 2, 3],
                                   query_size_bytes=9000, fanout=6,
                                   queries_per_second=10, rng=SeededRNG(2))
        flows = gen.make_query(0, 0.0)
        assert len(flows) == 6

    def test_generate_poisson_queries(self):
        gen = IncastQueryGenerator(clients=[0, 1], servers=list(range(2, 10)),
                                   query_size_bytes=40_000, fanout=4,
                                   queries_per_second=200, rng=SeededRNG(3))
        flows = gen.generate(duration=0.1)
        query_ids = {f.query_id for f in flows}
        assert len(query_ids) > 5
        assert all(len([f for f in flows if f.query_id == qid]) == 4
                   for qid in query_ids)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncastQueryGenerator([], [1], 1000, 1, 1, SeededRNG(0))
        with pytest.raises(ValueError):
            IncastQueryGenerator([0], [1], 1000, 0, 1, SeededRNG(0))
        with pytest.raises(ValueError):
            IncastQueryGenerator([0], [1], 1, 10, 1, SeededRNG(0))


class TestCollectives:
    def test_all_to_all_count_and_symmetry(self):
        flows = all_to_all_flows(list(range(4)), 1000)
        assert len(flows) == 12
        pairs = {(f.src, f.dst) for f in flows}
        assert (0, 1) in pairs and (1, 0) in pairs
        assert all(f.size_bytes == 1000 for f in flows)

    def test_double_binary_tree_structure(self):
        tree_a, tree_b = double_binary_tree(8)
        for tree in (tree_a, tree_b):
            roots = [r for r, p in tree.items() if r == p]
            assert len(roots) == 1
            assert set(tree) == set(range(8))
            # Every non-root eventually reaches the root (no cycles).
            root = roots[0]
            for rank in tree:
                seen = set()
                node = rank
                while node != root:
                    assert node not in seen
                    seen.add(node)
                    node = tree[node]
        assert tree_a != tree_b

    def test_all_reduce_flows_identical_sizes(self):
        flows = all_reduce_flows(list(range(6)), 4096)
        assert flows
        assert len({f.size_bytes for f in flows}) == 1
        assert all(f.src != f.dst for f in flows)

    def test_validation(self):
        with pytest.raises(ValueError):
            all_to_all_flows([0], 100)
        with pytest.raises(ValueError):
            all_reduce_flows([0], 100)
        with pytest.raises(ValueError):
            double_binary_tree(1)


class TestPermutation:
    def test_random_derangement_has_no_fixed_points(self):
        hosts = list(range(16))
        for seed in range(5):
            deranged = random_derangement(hosts, SeededRNG(seed))
            assert sorted(deranged) == hosts
            assert all(a != b for a, b in zip(hosts, deranged, strict=True))

    def test_permutation_flows_cover_all_hosts(self):
        flows = permutation_flows(list(range(8)), 10_000, rng=SeededRNG(3))
        assert len(flows) == 8
        assert sorted(f.src for f in flows) == list(range(8))
        assert sorted(f.dst for f in flows) == list(range(8))
        assert all(f.src != f.dst for f in flows)

    def test_shift_pattern_is_deterministic(self):
        flows = permutation_flows([0, 1, 2, 3], 5000, pattern="shift", shift=1)
        assert [(f.src, f.dst) for f in flows] == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            permutation_flows([0], 1000, rng=SeededRNG(0))
        with pytest.raises(ValueError):
            permutation_flows([0, 1], 0, rng=SeededRNG(0))
        with pytest.raises(ValueError):
            permutation_flows([0, 1], 1000, pattern="random")  # no rng
        with pytest.raises(ValueError):
            permutation_flows([0, 1], 1000, pattern="shift", shift=2)
        with pytest.raises(ValueError):
            permutation_flows([0, 1], 1000, pattern="spiral")


class TestHotspotGenerator:
    def test_hotspot_fraction_skews_receivers(self):
        gen = HotspotFlowGenerator(
            list(range(16)), hotspots=[15], flows_per_second=50_000,
            rng=SeededRNG(4), hotspot_fraction=0.8, flow_size_bytes=10_000)
        flows = gen.generate(duration=0.05)
        assert len(flows) > 500
        hot = sum(1 for f in flows if f.dst == 15)
        assert hot / len(flows) == pytest.approx(0.8, abs=0.1)
        assert all(f.src != f.dst for f in flows)

    def test_empirical_sizes(self):
        gen = HotspotFlowGenerator(
            list(range(8)), hotspots=[7], flows_per_second=20_000,
            rng=SeededRNG(5), size_distribution=WEB_SEARCH_DISTRIBUTION)
        flows = gen.generate(duration=0.01)
        assert flows
        assert len({f.size_bytes for f in flows}) > 10

    def test_validation(self):
        with pytest.raises(ValueError, match="two hosts"):
            HotspotFlowGenerator([0], [0], 100, SeededRNG(0),
                                 flow_size_bytes=100)
        with pytest.raises(ValueError, match="hotspot"):
            HotspotFlowGenerator([0, 1], [], 100, SeededRNG(0),
                                 flow_size_bytes=100)
        with pytest.raises(ValueError, match="one of the hosts"):
            HotspotFlowGenerator([0, 1], [5], 100, SeededRNG(0),
                                 flow_size_bytes=100)
        with pytest.raises(ValueError, match="exactly one"):
            HotspotFlowGenerator([0, 1], [1], 100, SeededRNG(0))
        with pytest.raises(ValueError, match="exactly one"):
            HotspotFlowGenerator([0, 1], [1], 100, SeededRNG(0),
                                 size_distribution=WEB_SEARCH_DISTRIBUTION,
                                 flow_size_bytes=100)


class TestBurstArrivals:
    def test_constant_rate_spacing(self):
        arrivals = constant_rate_arrivals(10e9, duration=12e-6, packet_bytes=1500)
        assert len(arrivals) == 10
        gaps = [b[0] - a[0] for a, b in zip(arrivals, arrivals[1:], strict=False)]
        assert all(g == pytest.approx(1.2e-6) for g in gaps)

    def test_burst_total_bytes(self):
        arrivals = burst_arrivals(10_000, 100e9, packet_bytes=1500)
        assert sum(size for _, size in arrivals) == 10_000

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_rate_arrivals(10e9, 0)
        with pytest.raises(ValueError):
            burst_arrivals(0, 10e9)
        # Each of these used to loop until memory ran out.  JSON parses
        # 1e400 to inf, so a spec can ask for an infinite rate.
        inf = float("inf")
        for call, name in [
                (lambda: constant_rate_arrivals(10e9, inf), "duration"),
                (lambda: constant_rate_arrivals(inf, 1e-3), "rate_bps"),
                (lambda: constant_rate_arrivals(json.loads("1e400"), 1e-3),
                 "rate_bps"),
                (lambda: burst_arrivals(10_000, inf), "rate_bps"),
                (lambda: burst_arrivals(10_000, 10e9, packet_bytes=0),
                 "packet_bytes"),
                (lambda: constant_rate_arrivals(10e9, 1e-3, packet_bytes=0),
                 "packet_bytes"),
                (lambda: constant_rate_arrivals(0, 1e-3), "rate_bps"),
                (lambda: burst_arrivals(10_000, -1e9), "rate_bps"),
                (lambda: burst_arrivals(inf, 10e9), "burst_bytes"),
                (lambda: constant_rate_arrivals(10e9, float("nan")),
                 "duration"),
                (lambda: constant_rate_arrivals(10e9, 1e-3, start_time=inf),
                 "start_time"),
                (lambda: burst_arrivals(10_000, 10e9, start_time=float("nan")),
                 "start_time")]:
            with pytest.raises(ValueError, match=name):
                call()

    @given(rate=st.floats(min_value=1e8, max_value=4e11),
           duration=st.floats(min_value=1e-7, max_value=1e-4),
           start=st.floats(min_value=0.0, max_value=1e-3),
           packet_bytes=st.integers(min_value=64, max_value=9000),
           port=st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_lazy_schedule_matches_the_accumulating_loop(
            self, rate, duration, start, packet_bytes, port):
        # The loop every recorded schedule was built with, frozen here:
        # one gap added at a time, so float accumulation is identical.
        gap = packet_bytes * 8 / rate
        expected, t = [], start
        while t < start + duration:
            expected.append((t, packet_bytes))
            t += gap
        schedule = constant_rate_schedule(rate, duration, packet_bytes,
                                          start_time=start, port=port)
        assert len(schedule) == len(expected)
        assert list(schedule) == [(t, size, port) for t, size in expected]
        assert list(schedule) == list(schedule)  # re-iterable
        assert constant_rate_arrivals(rate, duration, packet_bytes,
                                      start_time=start) == expected

    @given(burst_bytes=st.integers(min_value=1, max_value=200_000),
           packet_bytes=st.integers(min_value=64, max_value=9000),
           start=st.floats(min_value=0.0, max_value=1e-3))
    @settings(max_examples=200, deadline=None)
    def test_lazy_burst_matches_the_accumulating_loop(
            self, burst_bytes, packet_bytes, start):
        gap = packet_bytes * 8 / 100e9
        expected, t, remaining = [], start, burst_bytes
        while remaining > 0:
            size = min(packet_bytes, remaining)
            expected.append((t, size, 5))
            remaining -= size
            t += gap
        schedule = burst_schedule(burst_bytes, 100e9, packet_bytes,
                                  start_time=start, port=5)
        assert len(schedule) == len(expected)
        assert list(schedule) == expected
