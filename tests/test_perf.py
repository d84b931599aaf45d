"""Tests for the repro.perf case documents and its overhead gate."""

import json

import pytest

from repro.perf import CASES_DIR, case_names, load_case, measure_overhead
from repro.perf import harness
from repro.perf.cli import main as perf_main
from repro.scenario.builders import packet_burst_scenario
from repro.scenario.experiment import validate_spec_file
from repro.sim.units import GBPS, MB


def _tiny_spec(name):
    # A packet-level micro scenario: a short stream on a bare switch,
    # milliseconds of wall time.
    return packet_burst_scenario(
        scheme="dt",
        stream_specs=[{"rate_bps": 40 * GBPS, "port": 0, "duration": 30e-6}],
        port_rate_bps=10 * GBPS,
        buffer_bytes=1 * MB,
        duration=30e-6,
        name=name,
    )


@pytest.fixture
def tiny_cases(tmp_path):
    """Two micro case documents, ``tiny_base`` and ``tiny_variant``."""
    paths = []
    for name in ("tiny_base", "tiny_variant"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_tiny_spec(name).to_dict()))
        paths.append(path)
    return paths


#: The config hash each case's Python builder produced before the cases
#: became documents: the move kept every case's traffic.
CASE_HASHES = {
    "dumbbell_burst": "bf2d58ae15d69593",
    "incast_single_switch": "f889a99d0ec1c72f",
    "raw_switch_stream": "2a896342ac5b8f86",
    "websearch_fat_tree": "2a99e67033dcc796",
    "websearch_fattree_degraded": "e4f2b303ba5f9e28",
    "websearch_fattree_flowlet": "88d268e6812f8f96",
    "websearch_fattree_k8": "32b9ad3d9331837a",
    "websearch_leaf_spine": "17faa1d17d6db361",
    "websearch_leaf_spine_telemetry": "9569cd7c4a92e340",
}


class TestCaseRegistry:
    """The case directory is the registry: one document per case id."""

    def test_builtin_cases(self):
        assert case_names() == [
            "dumbbell_burst", "incast_single_switch", "raw_switch_stream",
            "websearch_fat_tree", "websearch_fattree_degraded",
            "websearch_fattree_flowlet", "websearch_fattree_k8",
            "websearch_leaf_spine", "websearch_leaf_spine_telemetry"]

    def test_case_ids_and_lookup(self, tiny_cases):
        assert load_case("incast_single_switch").name == (
            "perf_incast_single_switch")
        assert load_case(str(tiny_cases[0])).name == "tiny_base"
        with pytest.raises(KeyError, match="unknown perf case"):
            load_case("nope")

    def test_documents_keep_the_builders_hashes_and_validate(self):
        assert sorted(CASE_HASHES) == case_names()
        for name, expected in CASE_HASHES.items():
            assert load_case(name).config_hash() == expected, name
            path = str(CASES_DIR / f"{name}.json")
            assert validate_spec_file(path) == "scenario"


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
        base_path, variant_path = tiny_cases
        order = []
        real_execute = harness._execute_once

        def spying_execute(spec):
            order.append(spec.name)
            return real_execute(spec)

        monkeypatch.setattr(harness, "_execute_once", spying_execute)
        measurement = measure_overhead(load_case(str(base_path)),
                                       load_case(str(variant_path)),
                                       warmup=1, repetitions=4)
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

        argv = ["overhead", str(base_path), str(variant_path),
                "--warmup", "0", "--reps", "3"]
        assert perf_main(argv + ["--fail-above", "1000000"]) == 0
        assert perf_main(argv + ["--fail-above", "-1000"]) == 1
        assert "FAIL: overhead" in capsys.readouterr().out
        assert len(order) == 10 + 2 * 2 * 3  # one run per side per pair
