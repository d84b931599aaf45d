"""Tests for the repro.perf case registry and its overhead gate."""

import pytest

from repro.perf import (
    PerfCase,
    available_cases,
    get_case,
    measure_overhead,
    register_case,
    unregister_case,
)
from repro.perf import harness
from repro.perf.cli import main as perf_main
from repro.scenario.builders import packet_burst_scenario
from repro.sim.units import GBPS, MB


def _tiny_spec():
    # A packet-level micro scenario: a short stream on a bare switch,
    # milliseconds of wall time.
    return packet_burst_scenario(
        scheme="dt",
        stream_specs=[{"rate_bps": 40 * GBPS, "port": 0, "duration": 30e-6}],
        port_rate_bps=10 * GBPS,
        buffer_bytes=1 * MB,
        duration=30e-6,
        name="perf_test_tiny",
    )


@pytest.fixture
def tiny_cases():
    cases = [PerfCase(case_id=case_id, build=_tiny_spec,
                      description="test-only micro case")
             for case_id in ("tiny_base", "tiny_variant")]
    for case in cases:
        register_case(case)
    yield cases
    for case in cases:
        unregister_case(case.case_id)


class TestCaseRegistry:
    def test_builtin_cases(self):
        assert {case.case_id for case in available_cases()} == {
            "incast_single_switch", "websearch_leaf_spine",
            "websearch_leaf_spine_telemetry",
            "websearch_fat_tree", "websearch_fattree_degraded",
            "websearch_fattree_ecmp_lb", "websearch_fattree_flowlet",
            "websearch_fattree_k8", "dumbbell_burst", "raw_switch_stream"}

    def test_case_ids_and_lookup(self):
        assert get_case("incast_single_switch").case_id == "incast_single_switch"
        with pytest.raises(KeyError, match="unknown perf case"):
            get_case("nope")

    def test_collision_rejected(self, tiny_cases):
        with pytest.raises(ValueError, match="already registered"):
            register_case(tiny_cases[0])

    def test_builders_produce_valid_specs(self):
        from repro.scenario.runner import ScenarioRunner

        runner = ScenarioRunner()
        for case in available_cases():
            runner.validate(case.build())


class TestCli:
    def test_list(self, capsys):
        assert perf_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "incast_single_switch " in out

    def test_help_offers_exactly_the_two_gates_and_list(self, capsys):
        with pytest.raises(SystemExit):
            perf_main(["--help"])
        out = capsys.readouterr().out
        assert "{list,differential,overhead}" in out

    def test_run_unknown_case_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown perf case"):
            perf_main(["overhead", "not_a_case", "raw_switch_stream"])


class TestOverhead:
    def test_pairs_alternate_and_the_gate_reads_the_median_ratio(
            self, tiny_cases, monkeypatch, capsys):
        base, variant = tiny_cases
        order = []
        real_execute = harness._execute_once

        def spying_execute(case):
            order.append(case.case_id)
            return real_execute(case)

        monkeypatch.setattr(harness, "_execute_once", spying_execute)
        measurement = measure_overhead(base, variant, warmup=1, repetitions=4)
        b, v = "tiny_base", "tiny_variant"
        # One warm-up pair, then four timed pairs alternating who goes first.
        assert order == [b, v, b, v, v, b, b, v, v, b]
        assert len(measurement.base_repetitions) == 4
        assert len(measurement.variant_repetitions) == 4
        ratios = sorted(var / bas for bas, var in zip(
            measurement.base_repetitions, measurement.variant_repetitions,
            strict=True))
        assert measurement.overhead_pct == pytest.approx(
            ((ratios[1] + ratios[2]) / 2 - 1) * 100)

        argv = ["overhead", b, v, "--warmup", "0", "--reps", "3"]
        assert perf_main(argv + ["--fail-above", "1000000"]) == 0
        assert perf_main(argv + ["--fail-above", "-1000"]) == 1
        assert "FAIL: overhead" in capsys.readouterr().out
        assert len(order) == 10 + 2 * 2 * 3  # one run per side per pair
