"""Smoke test of the repo benchmark at ``--scale tiny`` (seconds, not minutes).

Collected by tier-1 (pytest has no ``testpaths``).  Checks the contract
the driver relies on -- result-line shape, metric names and units,
correctness accounting -- and the properties later issues lean on:
documents and exact counts repeat for a seed and move with it, the span
tree is well-formed, call counts repeat, an unresolved hook point yields
``null`` instead of a failed run.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (bench/ must be on the path first)
import session  # noqa: E402
import tracing  # noqa: E402
from ledger import UNITS  # noqa: E402
from specs import WORKLOADS, generate  # noqa: E402

CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BOUNDS = {"setup_s": 0.20, "wall_s": 0.15, "cpu_s": 0.15, "peak_rss_mb": 0.10}


def run_cli(*args: str) -> tuple[dict, dict]:
    """``bench/run.py`` as the driver runs it: (info document, result)."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@functools.lru_cache(maxsize=None)
def cli_seed_1(workload: str) -> tuple[dict, dict]:
    """The driver's form at the smoke size: 1 session, 1 + 1 repetitions.

    Cached: the traced test compares its own seed-1 run against this one
    instead of paying for a third.
    """
    return run_cli("--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--scale", "tiny", "--sessions", "1")


def tiny(workload: str, seed: int, trace: bool = False) -> dict:
    """One session in this process (warm-up only, or the traced run)."""
    return session.run_session(workload, seed, "tiny", 0, trace)


def test_contract_file_matches_the_code():
    assert CONTRACT["paths"] == ["bench"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == list(
        UNITS.items())
    names = [m["name"] for m in CONTRACT["end_to_end"]]
    assert names == [name for name, _ in run.END_TO_END]
    # The bounds the committed repeat_check table was printed against.
    assert {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]} == BOUNDS


def test_specs_are_seeded_and_constant_work():
    for workload in WORKLOADS:
        assert generate(workload, 3) == generate(workload, 3)
        assert generate(workload, 3) != generate(workload, 4)
    # Same bytes whatever the seed: that is what keeps host time steady.
    def volume(seed):
        flows = [flow for spec in generate("fabric_websearch", seed)["dt"]
                 ["workloads"] for flow in spec["params"]["flows"]]
        return len(flows), sum(flow["size_bytes"] for flow in flows)
    assert volume(1) == volume(2) == volume(99)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result_line_and_determinism(workload):
    info, result = cli_seed_1(workload)
    # 1 warm-up + 1 timed repetition, every operation checked, none failed.
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert info["samples"]["wall_s"]["n"] == 1 and not info["problems"]
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == wanted
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    # Another seed: other inputs, other documents.  (The second seed-1
    # invocation is the traced test's.)
    other = tiny(workload, seed=2)
    assert not other["problems"]
    assert set(other["digests"]) == set(info["document_sha256"])
    assert all(other["digests"][k] != info["document_sha256"][k]
               for k in other["digests"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ledger(workload):
    record = tiny(workload, seed=1, trace=True)
    assert not record["problems"] and not record["unresolved"]
    # Same seed as the driver-form invocation, another process, tracing on:
    # identical documents and exact counts.
    info, _ = cli_seed_1(workload)
    assert record["digests"] == info["document_sha256"]
    assert record["counts"] == info["counts"]
    layers = record["layers"]
    assert {name: entry["unit"] for name, entry in layers.items()} == UNITS
    assert all(isinstance(entry["value"], (int, float))
               for entry in layers.values())

    trace = json.loads((BENCH_DIR.parent / record["trace_file"]).read_text())
    spans = trace["spans"]
    assert trace["orphans"] == [] and spans[0]["parent"] is None
    assert all(0 <= span["parent"] < span["id"] for span in spans[1:])
    # Self times partition the traced repetition.
    assert sum(trace["self_s"].values()) == pytest.approx(
        trace["root_s"], rel=0.02)

    value = {name: entry["value"] for name, entry in layers.items()}
    assert value["sim.events"] > 0 and value["switchsim.calls"] > 0
    if workload == "switch_burst":
        assert all(value[f"{b}.calls"] == 0 for b in tracing.BUCKET_NAMES
                   if b.startswith("netsim."))
    if workload == "fabric_websearch":
        assert value["lb.decisions"] == 0 and value["telemetry.ticks"] == 0
        assert value["sim.shard.identical"] == 1.0
        assert value["sim.shard.rounds"] > 0
    if workload == "fabric_features":
        assert value["lb.decisions"] > 0 and value["telemetry.ticks"] > 0
        assert value["sim.kernel.pooled_identical"] == 1.0
    if workload == "campaign_farm":
        assert value["campaign.cache_hits"] == value["campaign.runs"] > 0
        assert value["farm.subprocess_s"] > value["campaign.inline_s"]
    if workload != "fabric_websearch":
        return  # one second traced run is what the 10 s budget allows

    # Exact work counts repeat from one traced run to the next.
    second = tiny(workload, seed=1, trace=True)["layers"]
    exact = [name for name in UNITS
             if name.endswith(".calls") or name.startswith("model.")
             or name in ("sim.events", "workloads.flows")]
    assert {n: second[n]["value"] for n in exact} == {
        n: value[n] for n in exact}


def test_unresolved_hook_point_is_null_not_a_failure(monkeypatch, capfd):
    hooks = tuple(
        (name, "repro.scenario.runner:renamed_by_a_later_pr")
        if name == "topology.build" else (name, target)
        for name, target in tracing.SPAN_HOOKS)
    monkeypatch.setattr(tracing, "SPAN_HOOKS", hooks)
    record = tiny("switch_burst", seed=1, trace=True)
    assert not record["problems"]
    assert record["unresolved"] == ["topology.build"]
    assert record["layers"]["topology.build_s"]["value"] is None
    assert record["layers"]["sim.dispatch_s"]["value"] > 0
    assert "does not resolve" in capfd.readouterr().err


def test_crashed_session_is_a_failed_operation_not_a_lost_run(monkeypatch):
    record = {"setup_s": 1.0, "reps": [{"wall_s": 1.0, "cpu_s": 1.0}],
              "peak_rss_mb": 1.0, "attempted": 4, "problems": [],
              "digests": {"dt": "0"}, "counts": {}}
    spawned = iter([record, None, record])
    monkeypatch.setattr(run, "spawn_session", lambda *args, **kw: next(spawned))
    info, result = run.run_end_to_end("switch_burst", 1, "tiny", 1, sessions=3)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (9, 1)
    assert info["crashed_sessions"] == 1
    assert info["samples"]["wall_s"]["n"] == 2
    # No survivor at all: nothing to report.
    monkeypatch.setattr(run, "spawn_session", lambda *args, **kw: None)
    assert run.run_end_to_end("switch_burst", 1, "tiny", 1, sessions=2) is None


def test_refuses_to_run_without_the_program(tmp_path):
    # The driver also runs the command where only BENCHMARK.json and
    # bench/ exist: it must exit non-zero and print no result.
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "switch_burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    assert done.returncode != 0 and done.stdout.strip() == ""
