"""Tests for the experiment harnesses (run at the smallest scale).

These are integration tests: they exercise the full stack (workloads, netsim,
switch, schemes) through the same entry points the experiment runner uses, and
assert the qualitative *shape* of each paper result rather than absolute
numbers.
"""

import importlib

import pytest

from repro.campaign.spec import RunSpec
from repro.experiments import fig11_queue_evolution, table1_hw_cost
from repro.experiments.common import (
    ExperimentResult,
    ScenarioConfig,
    default_schemes,
    get_scale,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    get_runner,
    run_experiment,
    specs_for_all,
)
from repro.scenario.builders import single_switch_scenario
from repro.scenario.runner import ScenarioRunner


class TestCommonInfrastructure:
    def test_default_schemes(self):
        schemes = default_schemes()
        assert "occamy" in schemes and "dt" in schemes

    def test_get_scale(self):
        bench = get_scale("bench")
        paper = get_scale("paper")
        assert bench.duration < paper.duration
        assert isinstance(bench, ScenarioConfig)
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_experiment_result_table_and_filter(self):
        result = ExperimentResult("demo")
        result.add_row(scheme="dt", value=1.0)
        result.add_row(scheme="occamy", value=0.5)
        assert result.columns() == ["scheme", "value"]
        assert result.column("value") == [1.0, 0.5]
        assert result.filter(scheme="occamy")[0]["value"] == 0.5
        text = result.format_table()
        assert "occamy" in text and "scheme" in text
        assert "demo" in str(result)

    def test_single_switch_scenario_produces_queries(self):
        spec = single_switch_scenario(scheme="dt", config=get_scale("bench"),
                                      query_size_bytes=40_000, seed=1,
                                      background_load=0.2)
        flow_stats = ScenarioRunner().run(spec).flow_stats
        assert flow_stats.completed_queries()
        assert flow_stats.completion_fraction() > 0.9


class TestRunnerRegistry:
    def test_every_figure_and_table_registered(self):
        expected = {"fig03", "fig06", "fig07", "fig11", "fig12", "fig13", "fig14",
                    "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
                    "fig22", "fig23", "table1"}
        assert expected == set(EXPERIMENTS)

    def test_get_runner_unknown(self):
        with pytest.raises(KeyError):
            get_runner("fig99")

    def test_each_module_importable_with_run(self):
        for name in EXPERIMENTS:
            assert callable(get_runner(name))


class TestFigurePoints:
    """A figure is its points: one run per point gives the figure's rows."""

    @pytest.mark.parametrize("name", ["fig03", "fig06", "fig12"])
    def test_point_rows_concatenate_to_the_figure(self, name):
        points = [spec.params["point"] for spec in specs_for_all("bench", names=[name])]
        assert len(points) > 1
        rows = [row for point in points
                for row in run_experiment(name, scale="bench", point=point).rows]
        assert rows == run_experiment(name, scale="bench").rows

    def test_specs_for_all_one_run_per_point(self):
        specs = specs_for_all(scale="bench", seed=3)
        for name, module_path in EXPERIMENTS.items():
            params = [spec.params for spec in specs if spec.experiment == name]
            if name == "table1":
                assert params == [{}]
                continue
            figure = importlib.import_module(module_path).points(scale="bench")
            assert params == [{"point": i} for i in range(len(figure.points))]
        assert {spec.seed for spec in specs} == {3}

    def test_figure_run_spec_hash_unchanged(self):
        # Stored campaign runs of a whole figure keep their config hash.
        assert RunSpec("fig13", "bench", 0, {"schemes": ["dt"]}).config_hash() \
            == "f7b5842d5276441b"

    def test_bench_scale_keeps_caller_parameters(self):
        # A scale only picks the defaults: parameters a caller passes win.
        from repro.experiments import fig03_dt_behavior, fig12_burst_absorption

        figure = fig12_burst_absorption.points(
            "bench", alphas=(2.0,), burst_sizes_kb=(300,))
        assert {(keys["alpha"], keys["burst_kb"]) for keys, _ in figure.points
                } == {(2.0, 300)}
        cases = {"healthy": 1.0, "anomalous": 2.0, "extreme": 3.0}
        figure = fig03_dt_behavior.points("bench", cases=cases)
        assert [keys["case"] for keys, _ in figure.points] == list(cases)

    def test_unknown_point_rejected(self):
        with pytest.raises(IndexError, match="fig03_dt_behavior has no point 2"):
            run_experiment("fig03", scale="bench", point=2)


class TestMicroExperiments:
    """Fast, deterministic experiments asserting the paper's qualitative claims."""

    def test_fig03_anomalous_case_drops_before_fair(self):
        result = run_experiment("fig03", scale="bench")
        by_case = {row["case"]: row for row in result.rows}
        assert by_case["healthy"]["q2_drops"] == 0
        assert by_case["anomalous"]["q2_drops"] > 0
        assert by_case["anomalous"]["drop_before_fair"] is True

    def test_fig11_occamy_absorbs_burst_dt_alpha4_does_not(self):
        result = run_experiment("fig11", scale="bench")
        rows = {(r["scheme"], r["alpha"]): r for r in result.rows}
        assert rows[("occamy", 1.0)]["burst_drops"] == 0
        assert rows[("occamy", 4.0)]["burst_drops"] == 0
        assert rows[("dt", 4.0)]["burst_drops"] > 0
        assert rows[("dt", 4.0)]["dropped_before_fair"] is True
        # Occamy actually expelled packets from the over-allocated queue.
        assert rows[("occamy", 4.0)]["q1_expelled"] > 0

    def test_runner_cli_runs_one_figure_and_reports_progress(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--scale", "bench"]) == 0
        out = capsys.readouterr().out
        assert "[table1 completed in " in out
        assert "[1 experiment(s) completed in " in out and "jobs=1]" in out

    def test_fig11_cli_writes_one_telemetry_csv_per_run(self, tmp_path, capsys):
        fig11_queue_evolution.main(["--csv", str(tmp_path)])
        expected = {f"fig11_{scheme}_alpha{alpha}.csv"
                    for scheme in ("occamy", "dt") for alpha in (1.0, 4.0)}
        assert {path.name for path in tmp_path.iterdir()} == expected
        for name in expected:
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0].split(",")[0] == "time" and len(lines) > 1
        assert capsys.readouterr().out.count("wrote ") == 4

    def test_fig12_occamy_absorbs_at_least_as_much_as_dt(self):
        result = run_experiment("fig12", scale="bench")
        for alpha in (1.0, 4.0):
            for burst in {r["burst_kb"] for r in result.rows}:
                occ = result.filter(scheme="occamy", alpha=alpha, burst_kb=burst)[0]
                dt = result.filter(scheme="dt", alpha=alpha, burst_kb=burst)[0]
                assert occ["loss_rate"] <= dt["loss_rate"] + 1e-9

    def test_fig12_dt_gets_worse_with_large_alpha(self):
        result = run_experiment("fig12", scale="bench")
        bursts = sorted({r["burst_kb"] for r in result.rows})
        mid = bursts[len(bursts) // 2]
        dt1 = result.filter(scheme="dt", alpha=1.0, burst_kb=mid)[0]["loss_rate"]
        dt4 = result.filter(scheme="dt", alpha=4.0, burst_kb=mid)[0]["loss_rate"]
        assert dt4 >= dt1

    def test_table1_matches_published_envelope(self):
        result = table1_hw_cost.run()
        by_module = {r["module"]: r for r in result.rows}
        assert by_module["selector"]["luts"] == pytest.approx(1262, rel=0.1)
        assert by_module["arbiter"]["luts"] == 3
        assert by_module["executor"]["flip_flops"] == 7
        total = by_module["occamy_total"]
        assert total["area_mm2"] < 0.03
        assert total["power_mw"] < 1.5
        assert total["timing_ns"] < 2.0  # one expulsion every 2 cycles at 1 GHz


@pytest.mark.slow
class TestNetworkExperimentsSmoke:
    """End-to-end smoke tests of the netsim-based harnesses at bench scale."""

    def test_fig13_runs_and_reports_all_schemes(self):
        result = run_experiment("fig13", scale="bench")
        schemes = {row["scheme"] for row in result.rows}
        assert schemes == set(default_schemes())
        assert all(row["avg_qct_ms"] > 0 for row in result.rows)

    def test_fig16_covers_dt_and_occamy(self):
        result = run_experiment("fig16", scale="bench")
        assert {row["scheme"] for row in result.rows} == {"dt", "occamy"}

    def test_fig21_compares_victim_policies(self):
        result = run_experiment("fig21", scale="bench")
        assert {row["victim_policy"] for row in result.rows} == {"round_robin", "longest"}

    def test_fig07_reports_utilization_percentiles(self):
        result = run_experiment("fig07", scale="bench")
        for row in result.rows:
            # A run that drops nothing samples nothing: no percentiles.
            for key in ("p50_util", "p90_util", "p99_util"):
                assert (row[key] is None) == (row["samples"] == 0)
                if row[key] is not None:
                    assert 0.0 <= row[key] <= 1.0
