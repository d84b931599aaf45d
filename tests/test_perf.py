"""Tests for the repro.perf benchmark subsystem."""

import json

import pytest

from repro.perf import (
    PerfCase,
    available_cases,
    compare_snapshots,
    get_case,
    load_snapshot,
    measure_case,
    register_case,
    run_cases,
    save_snapshot,
    unregister_case,
)
from repro.perf.cases import TIERS
from repro.perf.cli import main as perf_main
from repro.perf.compare import evaluate_gate
from repro.perf.harness import SNAPSHOT_SCHEMA_VERSION
from repro.perf.profiling import profile_case
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
def tiny_case():
    case = PerfCase(name="tiny_probe", tier="small", build=_tiny_spec,
                    description="test-only micro case")
    register_case(case)
    yield case
    unregister_case(case.case_id)


class TestCaseRegistry:
    def test_builtin_cases_cover_both_tiers(self):
        families = {case.name for case in available_cases()}
        assert families == {"incast_single_switch", "websearch_leaf_spine",
                            "websearch_leaf_spine_telemetry",
                            "websearch_fat_tree", "websearch_fattree_degraded",
                            "websearch_fattree_ecmp_lb",
                            "websearch_fattree_flowlet",
                            "websearch_fattree_k8",
                            "dumbbell_burst", "raw_switch_stream"}
        for tier in TIERS:
            assert {c.name for c in available_cases(tier=tier)} == families

    def test_case_ids_and_lookup(self):
        case = get_case("incast_single_switch/small")
        assert case.name == "incast_single_switch" and case.tier == "small"
        with pytest.raises(KeyError, match="unknown perf case"):
            get_case("nope/small")

    def test_collision_and_override(self, tiny_case):
        with pytest.raises(ValueError, match="already registered"):
            register_case(tiny_case)
        register_case(tiny_case, override=True)  # replacement allowed

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            register_case(PerfCase(name="x", tier="huge", build=_tiny_spec))

    def test_builders_produce_valid_specs(self):
        from repro.scenario.runner import ScenarioRunner

        runner = ScenarioRunner()
        for case in available_cases():
            runner.validate(case.build())


class TestHarness:
    def test_measure_case_records_metrics(self, tiny_case):
        measurement = measure_case(tiny_case, warmup=0, repetitions=2)
        assert measurement.case_id == "tiny_probe/small"
        assert measurement.wall_time_s > 0
        assert measurement.events > 0
        assert measurement.packets > 0
        assert measurement.events_per_sec > 0
        assert measurement.packets_per_sec > 0
        assert measurement.peak_rss_kb > 0
        assert len(measurement.repetitions) == 2
        assert measurement.wall_time_s == min(measurement.repetitions)

    def test_snapshot_round_trip_and_schema_gate(self, tiny_case, tmp_path):
        snapshot = run_cases([tiny_case], warmup=0, repetitions=1)
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert "tiny_probe/small" in snapshot["cases"]
        path = tmp_path / "snap.json"
        save_snapshot(snapshot, path)
        assert load_snapshot(path)["cases"] == snapshot["cases"]
        bad = dict(snapshot, schema_version=SNAPSHOT_SCHEMA_VERSION + 1)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="schema_version"):
            load_snapshot(bad_path)

    def test_repetition_counts_are_deterministic(self, tiny_case):
        a = measure_case(tiny_case, warmup=0, repetitions=1)
        b = measure_case(tiny_case, warmup=0, repetitions=1)
        assert (a.events, a.packets) == (b.events, b.packets)


def _snapshot_with(case_id, wall, events=1000, packets=500):
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "cases": {case_id: {
            "wall_time_s": wall,
            "events": events,
            "events_per_sec": events / wall,
            "packets": packets,
            "packets_per_sec": packets / wall,
            "peak_rss_kb": 1,
            "repetitions_s": [wall],
        }},
    }


class TestCompare:
    def test_delta_math(self):
        report = compare_snapshots(_snapshot_with("a/small", 2.0),
                                   _snapshot_with("a/small", 1.0))
        (delta,) = report.deltas
        assert delta.wall_change_pct == pytest.approx(-50.0)
        assert delta.speedup == pytest.approx(2.0)
        assert delta.events_match

    def test_gate_passes_and_fails(self):
        slower = compare_snapshots(_snapshot_with("a/small", 1.0),
                                   _snapshot_with("a/small", 1.4))
        assert evaluate_gate(slower, fail_above_pct=50.0) == 0
        much_slower = compare_snapshots(_snapshot_with("a/small", 1.0),
                                        _snapshot_with("a/small", 1.8))
        assert evaluate_gate(much_slower, fail_above_pct=50.0) == 1
        assert evaluate_gate(much_slower, fail_above_pct=None) == 0

    def test_disjoint_cases_reported(self):
        report = compare_snapshots(_snapshot_with("only_base/small", 1.0),
                                   _snapshot_with("only_head/small", 1.0))
        assert report.deltas == []
        assert report.only_in_baseline == ["only_base/small"]
        assert report.only_in_head == ["only_head/small"]
        assert "missing from head" in report.format_table()

    def test_event_count_mismatch_flagged(self):
        report = compare_snapshots(
            _snapshot_with("a/small", 1.0, events=1000),
            _snapshot_with("a/small", 1.0, events=1001))
        assert not report.deltas[0].events_match
        assert "event counts differ" in report.format_table()

    def test_event_count_mismatch_fails_gate_even_when_faster(self):
        # A behavior change that halves the workload looks like a speedup;
        # the gate must not be fooled by it.
        report = compare_snapshots(
            _snapshot_with("a/small", 1.0, events=1000),
            _snapshot_with("a/small", 0.5, events=500))
        assert evaluate_gate(report, fail_above_pct=50.0) == 1
        assert evaluate_gate(report, fail_above_pct=None) == 0  # report-only


class TestCli:
    def test_list(self, capsys):
        assert perf_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "incast_single_switch/small" in out

    def test_run_compare_profile_round_trip(self, tiny_case, tmp_path, capsys):
        base = tmp_path / "base.json"
        head = tmp_path / "head.json"
        assert perf_main(["run", "--cases", "tiny_probe", "--warmup", "0",
                          "--reps", "1", "--output", str(base)]) == 0
        assert perf_main(["run", "--cases", "tiny_probe/small", "--warmup", "0",
                          "--reps", "1", "--output", str(head)]) == 0
        assert perf_main(["compare", str(base), str(head),
                          "--fail-above", "10000"]) == 0
        out = capsys.readouterr().out
        assert "tiny_probe/small" in out

    def test_run_unknown_case_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown case"):
            perf_main(["run", "--cases", "not_a_case"])

    def test_profile_output_contains_hotspots(self, tiny_case):
        table = profile_case(tiny_case, top=5, sort="tottime")
        assert "function calls" in table
        with pytest.raises(ValueError, match="unknown sort key"):
            profile_case(tiny_case, sort="bogus")


def test_builtin_small_tier_is_fast_enough_for_ci(tiny_case):
    # Guard the CI perf-smoke budget: the tiny probe plus registry plumbing
    # must execute in milliseconds (the real small tier is covered in CI).
    measurement = measure_case(tiny_case, warmup=0, repetitions=1)
    assert measurement.wall_time_s < 1.0
