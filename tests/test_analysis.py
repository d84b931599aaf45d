"""Analysis toolkit tests: document loading, FCT CDFs, comparisons, CLI.

A small real campaign store (scenario runs with telemetry, one plain
experiment, one failure) is built once per module; every reader then works
from those persisted artifacts -- the toolkit never re-simulates.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    comparison_tables,
    fct_cdf_rows,
    fct_summary,
    flow_metric_values,
    load_documents,
    write_qlen_csv,
)
from repro.analysis.cli import main as analysis_main
from repro.analysis.sources import document_from_json
from repro.campaign import CampaignExecutor, ResultStore, RunSpec, StoreEntry
from repro.experiments.common import ExperimentResult
from repro.scenario import ScenarioSpec, run_scenario

import io

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def _scenario_run(seed: int, scheme: str) -> RunSpec:
    spec = ScenarioSpec.from_file(EXAMPLES_DIR / "scenario_dumbbell_burst.json")
    spec.duration = 0.002
    document = spec.to_dict()
    document["scheme"] = {"name": scheme, "kwargs": {"alpha": 2.0}}
    document["telemetry"] = {"enabled": True, "capacity": 16,
                             "per_port": False}
    return RunSpec(experiment="scenario", scale="-", seed=seed,
                   params={"scenario": document})


@pytest.fixture(scope="module")
def store_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("analysis-store")
    store = ResultStore(root)
    specs = [
        _scenario_run(0, "dt"),
        _scenario_run(0, "occamy"),
        _scenario_run(1, "occamy"),
        RunSpec("table1"),
        RunSpec("fig99"),  # fails: unknown experiment
    ]
    outcomes = CampaignExecutor(store=store).run(specs)
    assert [o.status for o in outcomes] == ["ok", "ok", "ok", "ok", "failed"]
    return root


class TestSources:
    def test_load_store_directory(self, store_root):
        documents = load_documents([store_root])
        assert len(documents) == 5
        statuses = sorted(doc.status for doc in documents)
        assert statuses == ["failed", "ok", "ok", "ok", "ok"]
        scenario_docs = [d for d in documents if d.experiment == "scenario"]
        assert len(scenario_docs) == 3
        for doc in scenario_docs:
            assert doc.flows is not None
            assert doc.flows.bottleneck_bps > 0
            assert doc.flows.records
            assert doc.telemetry is not None and doc.telemetry["ticks"] > 0

    def test_load_scenario_result_document(self, tmp_path):
        spec = ScenarioSpec.from_file(
            EXAMPLES_DIR / "scenario_dumbbell_burst.json")
        spec.duration = 0.002
        document = run_scenario(spec).to_dict()
        path = tmp_path / "result.json"
        path.write_text(json.dumps(document))
        (doc,) = load_documents([path])
        assert doc.experiment == "scenario:dumbbell-burst"
        assert doc.flows is not None and doc.flows.records
        assert doc.rows and "scheme" in doc.rows[0]

    def test_load_bare_telemetry_and_experiment_documents(self, tmp_path):
        (tmp_path / "bare.json").write_text(json.dumps(
            {"time": [0.0, 1.0], "series": {"x": [1, 2]},
             "ticks": 2, "capacity": 2, "interval": 1.0,
             "dropped_samples": 0}))
        (tmp_path / "exp.json").write_text(json.dumps(
            {"experiment": "demo", "notes": "", "rows": [{"scheme": "dt",
                                                          "v": 1.0}]}))
        documents = load_documents([tmp_path])
        assert [doc.experiment for doc in documents] == ["scenario", "demo"] \
            or len(documents) == 2
        by_label = {doc.label: doc for doc in documents}
        assert by_label["bare.json"[:-5]].telemetry is not None
        assert by_label["exp"].rows == [{"scheme": "dt", "v": 1.0}]

    def test_unrecognized_shape_fails_loudly(self):
        with pytest.raises(ValueError, match="unrecognized document shape"):
            document_from_json("x", {"whatever": 1})

    def test_missing_path_fails_loudly(self):
        with pytest.raises(ValueError, match="no such file"):
            load_documents(["/definitely/not/here"])


class TestFct:
    def test_slowdowns_grouped_by_scheme(self, store_root):
        documents = load_documents([store_root])
        groups = flow_metric_values(documents, group_by="scheme")
        assert sorted(groups) == ["dt", "occamy"]
        # occamy ran two seeds, dt one: twice the completed-flow samples.
        assert len(groups["occamy"]) == 2 * len(groups["dt"])
        for values in groups.values():
            assert all(value >= 1.0 for value in values)  # slowdown >= 1

    def test_cdf_rows_monotone_and_complete(self, store_root):
        documents = load_documents([store_root])
        rows = fct_cdf_rows(documents, group_by="scheme", points=16)
        assert rows
        by_group = {}
        for row in rows:
            by_group.setdefault(row["group"], []).append(row)
        for group_rows in by_group.values():
            values = [row["slowdown"] for row in group_rows]
            probabilities = [row["cdf"] for row in group_rows]
            assert values == sorted(values)
            assert probabilities == sorted(probabilities)
            assert probabilities[-1] == 1.0

    def test_fct_ms_metric_and_summary(self, store_root):
        documents = load_documents([store_root])
        table = fct_summary(documents, metric="fct_ms")
        assert {row["scheme"] for row in table.rows} == {"dt", "occamy"}
        for row in table.rows:
            assert row["p99"] >= row["p50"] > 0

    def test_unknown_metric_rejected(self, store_root):
        with pytest.raises(ValueError, match="unknown flow metric"):
            flow_metric_values(load_documents([store_root]), metric="vibes")

    def test_no_flow_documents_fails_loudly(self, tmp_path):
        (tmp_path / "exp.json").write_text(json.dumps(
            {"experiment": "demo", "rows": [{"v": 1.0}]}))
        with pytest.raises(ValueError, match="no documents carry per-flow"):
            from repro.analysis.fct import require_flows

            require_flows(load_documents([tmp_path]))


class TestCompare:
    def test_scheme_tables(self, store_root):
        documents = load_documents([store_root])
        tables, warnings = comparison_tables(
            documents, metric="avg_fct_slowdown", baseline="dt")
        assert not warnings
        summary, deltas = tables
        assert {row["scheme"] for row in summary.rows} == {"dt", "occamy"}
        baseline_row = next(r for r in deltas.rows if r["scheme"] == "dt")
        assert baseline_row["delta"] == 0

    def test_lb_grouping_backfills_ecmp(self, store_root):
        # Summary rows only tag non-default lb policies; rows without the
        # column are the static-hashing baseline, not unknown.
        documents = load_documents([store_root])
        tables, _ = comparison_tables(documents, group_by="lb",
                                      metric="avg_fct_slowdown")
        assert tables
        assert {row["lb"] for row in tables[0].rows} == {"ecmp"}

    def test_unknown_metric_warns_not_substitutes(self, store_root):
        tables, warnings = comparison_tables(
            load_documents([store_root]), metric="nonexistent")
        assert not tables
        assert any("nonexistent" in warning for warning in warnings)

    def test_unknown_baseline_warns_keeps_summary(self, store_root):
        tables, warnings = comparison_tables(
            load_documents([store_root]), metric="avg_fct_slowdown",
            baseline="mystery")
        assert len(tables) == 1  # summary survives, delta table skipped
        assert any("mystery" in warning for warning in warnings)


def _figure_store(root: Path, rows) -> Path:
    """A store of one synthetic entry per ``(experiment, scheme, columns)``."""
    store = ResultStore(root)
    for experiment, scheme, columns in rows:
        result = ExperimentResult(experiment)
        result.add_row(scheme=scheme, **columns)
        store.save(StoreEntry(
            spec=RunSpec(experiment, scale="bench",
                         params={"schemes": [scheme]}),
            status="ok", elapsed=0.1, result=result))
    return root


class TestCompareAcrossExperiments:
    """Each figure is its own comparison: two are never pooled into one mean."""

    def test_one_table_pair_per_experiment(self, tmp_path):
        root = _figure_store(tmp_path, [
            ("fig13", "dt", {"avg_qct_ms": 5.0}),
            ("fig13", "occamy", {"avg_qct_ms": 1.0}),
            ("fig17", "dt", {"avg_qct_ms": 500.0}),
            ("fig17", "occamy", {"avg_qct_ms": 900.0}),
        ])
        tables, warnings = comparison_tables(
            load_documents([root]), baseline="dt")
        assert warnings == []
        assert [t.experiment for t in tables] == [
            "fig13 summary[avg_qct_ms]", "fig13 deltas[avg_qct_ms]",
            "fig17 summary[avg_qct_ms]", "fig17 deltas[avg_qct_ms]"]
        occamy = [next(r for r in t.rows if r["scheme"] == "occamy")
                  for t in tables[1::2]]
        assert [r["delta_pct"] for r in occamy] == [-80.0, 80.0]

    def test_metric_of_one_experiment_warns_for_the_other(self, tmp_path):
        root = _figure_store(tmp_path, [
            ("fig13", "dt", {"avg_qct_ms": 5.0}),
            ("fig13", "occamy", {"avg_qct_ms": 1.0}),
            ("fig17", "dt", {"avg_fct_ms": 500.0}),
            ("fig17", "occamy", {"avg_fct_ms": 900.0}),
        ])
        tables, warnings = comparison_tables(
            load_documents([root]), metric="avg_qct_ms", baseline="dt")
        assert [t.experiment for t in tables] == [
            "fig13 summary[avg_qct_ms]", "fig13 deltas[avg_qct_ms]"]
        assert len(warnings) == 1
        assert warnings[0].startswith("fig17: metric 'avg_qct_ms'")


class TestQlen:
    def test_blocks_per_telemetry_run(self, store_root):
        documents = load_documents([store_root])
        stream = io.StringIO()
        blocks = write_qlen_csv(documents, stream)
        assert blocks == 3  # the three telemetry-enabled scenario runs
        text = stream.getvalue()
        assert text.count("# label=") == 3
        assert "switch.left.occupancy_bytes" in text

    def test_explicit_unmatched_pattern_raises(self, store_root):
        documents = load_documents([store_root])
        with pytest.raises(ValueError, match="no series match"):
            write_qlen_csv(documents, io.StringIO(), ["nope.*"])

    def test_no_telemetry_documents_fails_loudly(self, tmp_path):
        (tmp_path / "exp.json").write_text(json.dumps(
            {"experiment": "demo", "rows": [{"v": 1.0}]}))
        with pytest.raises(ValueError, match="telemetry"):
            write_qlen_csv(load_documents([tmp_path]), io.StringIO())


class TestCli:
    def test_summary_table(self, store_root, capsys):
        assert analysis_main(["summary", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out and "scenario" in out

    def test_fct_csv_byte_stable(self, store_root, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert analysis_main(["fct", str(store_root),
                              "--out", str(first)]) == 0
        assert analysis_main(["fct", str(store_root),
                              "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith("group,slowdown,cdf")

    def test_compare_csv_byte_stable(self, store_root, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (first, second):
            assert analysis_main([
                "compare", str(store_root), "--format", "csv",
                "--metric", "avg_fct_slowdown", "--baseline", "dt",
                "--out", str(path)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_qlen_csv(self, store_root, tmp_path, capsys):
        out = tmp_path / "qlen.csv"
        assert analysis_main(["qlen", str(store_root),
                              "--out", str(out)]) == 0
        assert out.read_text().count("# label=") == 3

    def test_fct_table_format(self, store_root, capsys):
        assert analysis_main(["fct", str(store_root),
                              "--format", "table"]) == 0
        assert "p99" in capsys.readouterr().out

    def test_json_format(self, store_root, capsys):
        assert analysis_main(["fct", str(store_root),
                              "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and {"group", "slowdown", "cdf"} <= set(rows[0])

    def test_error_paths(self, store_root, tmp_path, capsys):
        assert analysis_main(["summary", "/not/a/path"]) == 1
        assert "error:" in capsys.readouterr().err
        (tmp_path / "exp.json").write_text(json.dumps(
            {"experiment": "demo", "rows": [{"v": 1.0}]}))
        assert analysis_main(["fct", str(tmp_path)]) == 1
        assert "per-flow" in capsys.readouterr().err
