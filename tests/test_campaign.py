"""Tests for the campaign subsystem: specs, hashing, store, executor, CLI.

The executor/CLI tests run real (tiny, ``bench``-scale) experiments so they
cover the full stack; the aggregation tests use synthetic store entries and
read them back through :mod:`repro.analysis`, the one reader of stored
results.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import comparison_tables, load_documents, tagged_document_rows
from repro.analysis.cli import main as analysis_main
from repro.analysis.compare import numeric_columns, scheme_deltas, scheme_summary
from repro.campaign import (
    CampaignExecutor,
    GridSpec,
    ResultStore,
    RunSpec,
    StoreEntry,
    SweepSpec,
    execute_run,
)
from repro.campaign.cli import main as campaign_main
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import run_all, run_experiment, specs_for_all


def _dying_run(spec):
    """Stand-in for a worker killed mid-run (reaches forked workers)."""
    time.sleep(0.15)
    os._exit(1)


class TestExperimentResultRoundTrip:
    def test_to_dict_from_dict_lossless(self):
        result = ExperimentResult("demo", notes="a note")
        result.add_row(scheme="occamy", value=1.5, count=3, healthy=True, label="x")
        result.add_row(scheme="dt", value=0.25, count=0, healthy=False, label="y")
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.experiment == result.experiment
        assert rebuilt.notes == result.notes
        assert rebuilt.rows == result.rows

    def test_round_trip_through_json(self):
        result = ExperimentResult("demo")
        result.add_row(a=1, b=2.5, c="s", d=True, e=None)
        rebuilt = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.rows == result.rows
        assert type(rebuilt.rows[0]["a"]) is int
        assert type(rebuilt.rows[0]["b"]) is float

    def test_corrupt_payload_fails_loudly(self):
        # A non-empty payload without an experiment name is a corrupt store
        # entry and must raise on resume, not rebuild as a nameless result.
        with pytest.raises(KeyError):
            ExperimentResult.from_dict({"rows": [{"a": 1}]})
        # A bare {} is a legitimately empty artifact, not corruption.
        empty = ExperimentResult.from_dict({})
        assert empty.experiment == ""
        assert empty.rows == []

    def test_to_dict_copies_rows(self):
        result = ExperimentResult("demo")
        result.add_row(a=1)
        data = result.to_dict()
        data["rows"][0]["a"] = 99
        assert result.rows[0]["a"] == 1


class TestConfigHashing:
    def test_same_spec_same_hash(self):
        a = RunSpec("fig13", scale="bench", seed=3, params={"background_load": 0.5})
        b = RunSpec("fig13", scale="bench", seed=3, params={"background_load": 0.5})
        assert a.config_hash() == b.config_hash()

    def test_param_order_does_not_matter(self):
        a = RunSpec("fig13", params={"x": 1, "y": 2})
        b = RunSpec("fig13", params={"y": 2, "x": 1})
        assert a.config_hash() == b.config_hash()

    def test_changed_override_changes_hash(self):
        base = RunSpec("fig13", scale="bench", seed=0, params={"background_load": 0.5})
        assert base.config_hash() != RunSpec(
            "fig13", scale="bench", seed=0, params={"background_load": 0.6}
        ).config_hash()
        assert base.config_hash() != RunSpec(
            "fig13", scale="bench", seed=1, params={"background_load": 0.5}
        ).config_hash()
        assert base.config_hash() != RunSpec(
            "fig13", scale="small", seed=0, params={"background_load": 0.5}
        ).config_hash()
        assert base.config_hash() != RunSpec(
            "fig17", scale="bench", seed=0, params={"background_load": 0.5}
        ).config_hash()

    def test_hash_stable_across_processes(self):
        spec = RunSpec("fig13", scale="bench", seed=7, params={"schemes": ["dt"]})
        script = (
            "from repro.campaign.spec import RunSpec;"
            "print(RunSpec('fig13', scale='bench', seed=7,"
            " params={'schemes': ['dt']}).config_hash())"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == spec.config_hash()


class TestSweepSpec:
    def make_spec(self):
        return SweepSpec(
            "s",
            [
                GridSpec(
                    experiments=["fig13"],
                    scales=["bench"],
                    seeds=[0, 1],
                    params={"schemes": [["occamy"], ["dt"]], "background_load": [0.3, 0.7]},
                )
            ],
        )

    def test_grid_expansion_is_cartesian(self):
        runs = self.make_spec().expand()
        assert len(runs) == 8  # 2 seeds x 2 scheme lists x 2 loads
        assert len({r.config_hash() for r in runs}) == 8

    def test_json_round_trip(self):
        spec = self.make_spec()
        rebuilt = SweepSpec.from_json(json.dumps(spec.to_dict()))
        assert [r.config_hash() for r in rebuilt.expand()] == [
            r.config_hash() for r in spec.expand()
        ]

    def test_expand_dedupes_overlapping_grids(self):
        grid = GridSpec(experiments=["table1"], seeds=[0])
        spec = SweepSpec("dup", [grid, grid])
        assert len(spec.expand()) == 1

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.make_spec().to_dict()))
        assert len(SweepSpec.from_file(path).expand()) == 8

    def test_single_wraps_run_specs(self):
        runs = [RunSpec("fig13", seed=4, params={"background_load": 0.1})]
        spec = SweepSpec.single("wrapped", runs)
        assert [r.config_hash() for r in spec.expand()] == [runs[0].config_hash()]

    def test_grid_requires_experiments(self):
        with pytest.raises(ValueError):
            GridSpec.from_dict({"seeds": [0]})

    def test_grid_rejects_bare_strings(self):
        with pytest.raises(ValueError, match="experiments must be a list"):
            GridSpec.from_dict({"experiments": "fig13"})
        with pytest.raises(ValueError, match="scales must be a list"):
            GridSpec.from_dict({"experiments": ["fig13"], "scales": "bench"})
        with pytest.raises(ValueError, match="params"):
            GridSpec.from_dict(
                {"experiments": ["fig13"], "params": {"background_load": 0.5}}
            )

    @pytest.mark.parametrize("document, message", [
        # A typo used to expand with no axes / the default seeds.
        ({"grids": [{"type": "scenario", "scenario": {}, "axis": {}}]},
         r"grids\[0\]\.axis"),
        ({"grids": [{"experiments": ["table1"]},
                    {"experiments": ["table1"], "seed": [3]}]},
         r"grids\[1\]\.seed"),
        ({"grids": [{"type": "scenario", "scenario": {}, "seed": [3]}]},
         r"grids\[0\]\.seed"),
        ({"name": "s", "grid": []}, r"sweep\.grid"),
        # Lossy seeds: [1.9, true] used to expand to one run of seed 1.
        ({"grids": [{"experiments": ["table1"], "seeds": [1.9, True]}]},
         r"grids\[0\]\.seeds\[0\]"),
        ({"grids": [{"type": "scenario", "scenario": {}, "seeds": [1, True]}]},
         r"grids\[0\]\.seeds\[1\]"),
        ({"grids": [{"type": "scenario", "scenario": {"seed": 2.5}}]},
         r"grids\[0\]\.scenario\.seed"),
        # Shapes: a string used to iterate as grids or seeds, and a scalar
        # axis died in list().
        ({"grids": "x"}, r"^sweep\.grids must be a list"),
        ({"grids": [{"experiments": ["table1"], "seeds": "12"}]},
         r"^grids\[0\]\.seeds must be a list"),
        ({"grids": [{"type": "scenario", "scenario": {},
                     "axes": {"seed": 3}}]},
         r"^grids\[0\]\.axes\.seed must be a list"),
        ({"grids": [{"type": ["scenario"]}]},
         r"^grids\[0\]\.type: unknown grid type \['scenario'\]"),
    ], ids=["scenario-axis", "grid-seed", "scenario-seed", "sweep-grid",
            "grid-lossy-seeds", "scenario-lossy-seeds",
            "scenario-lossy-default-seed", "grids-string", "seeds-string",
            "axis-scalar", "type-list"])
    def test_key_typos_are_rejected_with_dotted_names(self, document, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec.from_dict(document)


def make_entry(experiment="fig13", seed=0, scheme="occamy", value=1.0, status="ok"):
    result = ExperimentResult(experiment)
    result.add_row(scheme=scheme, avg_qct_ms=value, label="x")
    return StoreEntry(
        spec=RunSpec(experiment, scale="bench", seed=seed, params={"schemes": [scheme]}),
        status=status,
        elapsed=0.1,
        result=result if status == "ok" else None,
        error=None if status == "ok" else "boom",
    )


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        entry = make_entry()
        path = store.save(entry)
        assert path.exists()
        loaded = store.load(entry.config_hash)
        assert loaded is not None
        assert loaded.ok
        assert loaded.spec.to_dict() == entry.spec.to_dict()
        assert loaded.result.rows == entry.result.rows

    def test_completed_only_for_ok(self, tmp_path):
        store = ResultStore(tmp_path)
        ok = make_entry(seed=0)
        failed = make_entry(seed=1, status="failed")
        store.save(ok)
        store.save(failed)
        assert store.completed(ok.config_hash)
        assert not store.completed(failed.config_hash)
        assert store.load("0" * 16) is None
        assert store.status_counts() == {"ok": 1, "failed": 1}

    def test_clean(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(make_entry(seed=0))
        store.save(make_entry(seed=1, status="failed"))
        assert store.clean(failed_only=True) == 1
        assert store.status_counts() == {"ok": 1}
        assert store.clean() == 1
        assert store.status_counts() == {}

    def test_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nope")
        assert list(store.entries()) == []
        assert store.status_counts() == {}

    def test_empty_metrics_result_round_trips(self, tmp_path):
        # Regression: ``result=... if result else None`` in from_dict dropped
        # legitimately empty result payloads on resume -- an ok run with no
        # rows must come back as an (empty) result, never as None.
        store = ResultStore(tmp_path)
        entry = make_entry()
        entry.result = ExperimentResult("fig13")  # ok status, zero rows
        store.save(entry)
        loaded = store.load(entry.config_hash)
        assert loaded.ok
        assert loaded.result is not None
        assert loaded.result.rows == []

    def test_falsy_result_dict_not_dropped(self):
        # Even a bare ``{}`` result payload (falsy!) must rebuild into an
        # empty ExperimentResult rather than be silently replaced by None.
        document = make_entry().to_dict()
        document["result"] = {}
        loaded = StoreEntry.from_dict(document)
        assert loaded.result is not None
        assert loaded.result.rows == []
        # An absent result is still genuinely None.
        document["result"] = None
        assert StoreEntry.from_dict(document).result is None


class TestExecutor:
    def test_execute_run_failure_captured(self):
        outcome = execute_run(RunSpec("fig99"))
        assert outcome.status == "failed"
        assert not outcome.ok
        assert "fig99" in outcome.error
        assert outcome.traceback

    def test_bad_param_failure_captured(self):
        outcome = execute_run(RunSpec("table1", params={"bogus_kwarg": 1}))
        assert outcome.status == "failed"
        assert "TypeError" in outcome.error

    def test_failure_does_not_abort_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [RunSpec("fig99"), RunSpec("table1")]
        outcomes = CampaignExecutor(store=store).run(specs)
        assert [o.status for o in outcomes] == ["failed", "ok"]
        assert store.status_counts() == {"ok": 1, "failed": 1}

    def test_fail_fast_stops_after_first_failure(self):
        specs = [RunSpec("table1", seed=0), RunSpec("fig99"), RunSpec("table1", seed=1)]
        outcomes = CampaignExecutor().run(specs, fail_fast=True)
        assert [o.status for o in outcomes] == ["ok", "failed"]  # third never ran

    def test_serial_run_persists_artifacts(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [RunSpec("table1", seed=s) for s in (0, 1)]
        outcomes = CampaignExecutor(store=store).run(specs)
        assert all(o.status == "ok" for o in outcomes)
        for spec in specs:
            assert store.path_for(spec.config_hash()).exists()

    def test_resume_skips_completed(self, tmp_path):
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store)
        specs = [RunSpec("table1", seed=s) for s in (0, 1)]
        first = executor.run(specs, resume=True)
        assert [o.status for o in first] == ["ok", "ok"]
        second = executor.run(specs, resume=True)
        assert [o.status for o in second] == ["cached", "cached"]
        assert second[0].result.rows  # cached result loaded back from disk

    def test_resume_retries_failures(self, tmp_path):
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store)
        bad = RunSpec("fig99")
        executor.run([bad])
        retry = executor.run([bad], resume=True)
        assert retry[0].status == "failed"  # re-attempted, not served from cache

    def test_without_resume_reruns(self, tmp_path):
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store)
        spec = RunSpec("table1")
        executor.run([spec])
        again = executor.run([spec])
        assert again[0].status == "ok"

    def test_progress_callback_sees_every_run(self, tmp_path):
        seen = []
        specs = [RunSpec("table1", seed=s) for s in (0, 1, 2)]
        CampaignExecutor().run(
            specs, progress=lambda done, total, o: seen.append((done, total, o.status))
        )
        assert seen == [(1, 3, "ok"), (2, 3, "ok"), (3, 3, "ok")]

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            CampaignExecutor(jobs=0)

    def test_fail_fast_drains_completed_parallel_runs(self, tmp_path):
        """Runs in flight when a fail_fast failure surfaces must still be
        recorded: the dispatch yields them after the halt, and the executor
        persists them -- otherwise --resume would silently re-simulate finished-ok
        runs whose outcome was simply never consumed."""
        store = ResultStore(tmp_path)
        spec_doc = json.loads(
            (Path(__file__).parent.parent / "examples" /
             "scenario_dumbbell_burst.json").read_text())
        spec_doc["duration"] = 0.002
        specs = [
            RunSpec("scenario", scale="-", seed=0,
                    params={"scenario": spec_doc}),
            RunSpec("fig99"),  # fails almost instantly
        ]
        outcomes = CampaignExecutor(store=store, jobs=2).run(
            specs, fail_fast=True)
        # Both runs come back and both are persisted, regardless of which
        # completion order the workers produced.
        assert len(outcomes) == 2
        assert store.status_counts() == {"ok": 1, "failed": 1}
        for outcome in outcomes:
            assert store.load(outcome.spec.config_hash()) is not None

    @pytest.mark.skipif(
        not hasattr(os, "fork"),
        reason="crasher patch reaches workers via fork inheritance")
    def test_worker_death_outcome_carries_elapsed_and_traceback(
            self, monkeypatch):
        """A worker that dies mid-run (OOM kill, segfault) is retried on a
        fresh worker; once the attempts run out the run is a failed outcome
        with the wall time of its last attempt and the loss as traceback --
        not elapsed=0.0 and traceback=None."""
        from repro.campaign import executor as executor_module

        monkeypatch.setattr(executor_module, "execute_run", _dying_run)
        outcomes = CampaignExecutor(jobs=2).run(
            [RunSpec("table1", seed=s) for s in (0, 1)])
        assert [o.status for o in outcomes] == ["failed", "failed"]
        for outcome in outcomes:
            assert "worker lost after 3 attempts" in outcome.error
            assert outcome.elapsed >= 0.1
            assert outcome.traceback is not None

    @pytest.mark.slow
    def test_parallel_matches_serial(self, tmp_path):
        specs = [
            RunSpec("fig13", scale="bench", seed=s, params={"schemes": [sch]})
            for s in (0, 1)
            for sch in ("occamy", "dt")
        ]
        serial = CampaignExecutor(jobs=1).run(specs)
        parallel = CampaignExecutor(jobs=2).run(specs)
        assert [o.spec.config_hash() for o in serial] == [
            o.spec.config_hash() for o in parallel
        ]
        for s, p in zip(serial, parallel, strict=True):
            assert s.status == p.status == "ok"
            assert json.dumps(s.result.rows, sort_keys=True) == json.dumps(
                p.result.rows, sort_keys=True
            )


class TestAggregation:
    def entries(self):
        return [
            make_entry(seed=0, scheme="occamy", value=1.0),
            make_entry(seed=1, scheme="occamy", value=2.0),
            make_entry(seed=0, scheme="dt", value=4.0),
            make_entry(seed=1, scheme="dt", value=6.0),
            make_entry(seed=2, scheme="dt", status="failed"),
        ]

    def documents(self, tmp_path):
        """The entries, stored and read back as analysis documents."""
        store = ResultStore(tmp_path)
        for entry in self.entries():
            store.save(entry)
        return load_documents([tmp_path])

    def test_tagged_rows_skip_failures(self, tmp_path):
        rows = tagged_document_rows(self.documents(tmp_path))
        assert len(rows) == 4
        assert {r["_seed"] for r in rows} == {0, 1}
        assert all(r["_experiment"] == "fig13" for r in rows)

    def test_numeric_columns_exclude_tags_strings_bools(self, tmp_path):
        rows = tagged_document_rows(self.documents(tmp_path))
        rows[0]["flag"] = True
        assert numeric_columns(rows) == ["avg_qct_ms"]

    def test_scheme_summary(self, tmp_path):
        rows = tagged_document_rows(self.documents(tmp_path))
        summary = scheme_summary(rows, "avg_qct_ms")
        by_scheme = {r["scheme"]: r for r in summary.rows}
        assert by_scheme["occamy"]["mean"] == pytest.approx(1.5)
        assert by_scheme["dt"]["mean"] == pytest.approx(5.0)
        assert by_scheme["dt"]["count"] == 2

    def test_scheme_deltas_against_baseline(self, tmp_path):
        rows = tagged_document_rows(self.documents(tmp_path))
        deltas = scheme_deltas(rows, "avg_qct_ms", baseline="dt")
        by_scheme = {r["scheme"]: r for r in deltas.rows}
        assert by_scheme["dt"]["delta"] == 0
        assert by_scheme["occamy"]["delta"] == pytest.approx(-3.5)
        assert by_scheme["occamy"]["delta_pct"] == pytest.approx(-70.0)

    def test_scheme_deltas_unknown_baseline(self, tmp_path):
        rows = tagged_document_rows(self.documents(tmp_path))
        with pytest.raises(KeyError):
            scheme_deltas(rows, "avg_qct_ms", baseline="abm")

    def test_campaign_report_from_store_only(self, tmp_path):
        tables, warnings = comparison_tables(
            self.documents(tmp_path), metric="avg_qct_ms", baseline="dt")
        assert len(tables) == 2  # summary + deltas for fig13
        assert warnings == []
        text = "\n".join(str(t) for t in tables)
        assert "occamy" in text and "dt" in text
        assert "summary[avg_qct_ms]" in text and "deltas[avg_qct_ms]" in text

    def test_campaign_report_unknown_metric_warns_not_substitutes(self, tmp_path):
        tables, warnings = comparison_tables(
            self.documents(tmp_path), metric="avg_qct")  # typo
        assert tables == []
        assert any("avg_qct" in w for w in warnings)

    def test_campaign_report_unknown_baseline_warns_not_substitutes(self, tmp_path):
        tables, warnings = comparison_tables(
            self.documents(tmp_path), baseline="abm")
        # No delta table against a substituted baseline; the summary stays.
        assert [t.experiment for t in tables] == ["summary[avg_qct_ms]"]
        assert any("abm" in w for w in warnings)


class TestRunnerIntegration:
    def test_specs_for_all_shared_seed_by_default(self):
        specs = specs_for_all(scale="bench", seed=5, names=["fig03", "fig11", "table1"])
        assert [s.seed for s in specs] == [5] * 7

    def test_specs_for_all_vary_seed_offsets_by_index(self):
        specs = specs_for_all(
            scale="bench", seed=5, names=["fig03", "fig11", "table1"], vary_seed=True
        )
        # Every point of a figure shares the figure's seed.
        assert [(s.experiment, s.seed) for s in specs] == (
            [("fig03", 5)] * 2 + [("fig11", 6)] * 4 + [("table1", 7)]
        )

    def test_run_all_raises_on_failure(self):
        with pytest.raises(RuntimeError, match="fig99"):
            run_all(names=["fig99"])

    def test_run_all_raises_on_bad_scale(self):
        with pytest.raises(RuntimeError, match="fig13.*unknown scale 'huge'"):
            run_all(scale="huge", names=["fig13"])

    def test_run_experiment_deterministic_within_process(self):
        a = run_experiment("fig03", scale="bench")
        b = run_experiment("fig03", scale="bench")
        assert json.dumps(a.rows, sort_keys=True) == json.dumps(b.rows, sort_keys=True)

    @pytest.mark.slow
    def test_run_all_parallel_matches_serial(self):
        names = ["fig03", "fig12"]
        serial = run_all(scale="bench", names=names, jobs=1)
        parallel = run_all(scale="bench", names=names, jobs=2)
        assert [r.experiment for r in serial] == [r.experiment for r in parallel]
        for s, p in zip(serial, parallel, strict=True):
            assert json.dumps(s.rows, sort_keys=True) == json.dumps(
                p.rows, sort_keys=True
            )


class TestCampaignCli:
    def write_spec(self, tmp_path, seeds=(0, 1)):
        spec = SweepSpec(
            "cli-test",
            [
                GridSpec(
                    experiments=["fig13"],
                    scales=["bench"],
                    seeds=list(seeds),
                    params={"schemes": [["occamy"], ["dt"]]},
                )
            ],
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path, spec

    def test_dry_run_lists_grid(self, tmp_path, capsys):
        path, spec = self.write_spec(tmp_path)
        assert campaign_main(["run", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert f"{len(spec.expand())} runs" in out

    @pytest.mark.slow
    def test_run_resume_status_report_clean(self, tmp_path, capsys):
        path, spec = self.write_spec(tmp_path, seeds=(0,))
        store_dir = str(tmp_path / "store")

        assert campaign_main(["run", str(path), "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 ok (0 cached), 0 failed" in out
        artifacts = list((Path(store_dir) / "runs").glob("*.json"))
        assert len(artifacts) == 2  # one JSON artifact per run

        # Resume: nothing re-runs.
        assert campaign_main(["run", str(path), "--store", store_dir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 ok (2 cached), 0 failed" in out

        assert campaign_main(
            ["status", "--store", store_dir, "--spec", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "ok: 2" in out and "2/2 runs completed" in out

        assert analysis_main(
            ["compare", store_dir, "--metric", "avg_qct_ms",
             "--baseline", "dt"]
        ) == 0
        out = capsys.readouterr().out
        assert "occamy" in out and "dt" in out and "deltas[avg_qct_ms]" in out

        assert campaign_main(["clean", "--store", store_dir]) == 0
        assert analysis_main(["compare", store_dir]) == 1

    def test_report_empty_store(self, tmp_path, capsys):
        (tmp_path / "empty" / "runs").mkdir(parents=True)
        assert analysis_main(["compare", str(tmp_path / "empty")]) == 1
        assert "no documents loaded" in capsys.readouterr().err
