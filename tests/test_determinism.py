"""Determinism regression tests.

Same ScenarioSpec + seed must produce byte-identical
``json.dumps(ScenarioResult.to_dict())`` output:

* across repeated runs in one process, with nothing reset in between --
  flow ids feed the ECMP path hash, and every run numbers its own flows;
* across serial vs ``--jobs 2`` campaign execution (worker processes must
  not leak state into results);
* across two fresh interpreter processes (no hidden dependence on hash
  randomization, import order or allocator state).
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import RunSpec
from repro.scenario import (ScenarioSpec, get_scale, leaf_spine_scenario,
                            run_scenario)

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
SRC_DIR = Path(__file__).parent.parent / "src"


def _spec() -> ScenarioSpec:
    # The dumbbell-burst example exercises two switches, ECMP-free routing,
    # two transports and the occamy expulsion engine in ~100 ms of wall time.
    spec = ScenarioSpec.from_file(EXAMPLES_DIR / "scenario_dumbbell_burst.json")
    spec.duration = 0.002
    return spec


def _run_to_json() -> str:
    return json.dumps(run_scenario(_spec()).to_dict(), sort_keys=True)


def test_same_spec_same_seed_byte_identical_in_process():
    assert _run_to_json() == _run_to_json()


def test_result_to_dict_round_trips_through_json():
    document = json.loads(_run_to_json())
    assert document["level"] == "network"
    assert document["spec"]["seed"] == _spec().seed
    assert document["flows"], "expected per-flow records"


def test_serial_vs_parallel_campaign_identical():
    document = _spec().to_dict()
    specs = [
        RunSpec(experiment="scenario", scale="-", seed=seed,
                params={"scenario": document})
        for seed in (0, 1)
    ]
    serial = CampaignExecutor(jobs=1).run(specs)
    parallel = CampaignExecutor(jobs=2).run(specs)
    assert all(outcome.ok for outcome in serial)
    assert all(outcome.ok for outcome in parallel)
    serial_docs = [json.dumps(o.result.to_dict(), sort_keys=True) for o in serial]
    parallel_docs = [json.dumps(o.result.to_dict(), sort_keys=True)
                     for o in parallel]
    assert serial_docs == parallel_docs


_CHILD_SCRIPT = """
import json, sys
from repro.scenario import ScenarioSpec, run_scenario

spec = ScenarioSpec.from_file(sys.argv[1])
spec.duration = 0.002
print(json.dumps(run_scenario(spec).to_dict(), sort_keys=True))
"""


def test_two_fresh_processes_byte_identical():
    def run_child() -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT,
             str(EXAMPLES_DIR / "scenario_dumbbell_burst.json")],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "random"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run_child()
    assert first == run_child()
    # The fresh processes also agree with an in-process run.
    assert first.strip() == _run_to_json()


# ----------------------------------------------------------------------
# Fat-tree: multi-stage ECMP path choice must be deterministic everywhere
# ----------------------------------------------------------------------
def _fat_tree_spec() -> ScenarioSpec:
    # The fat-tree example exercises two ECMP stages (edge->agg, agg->core)
    # across 20 switches with three workload families; a shortened window
    # keeps each run around a second.
    spec = ScenarioSpec.from_file(EXAMPLES_DIR / "scenario_fattree_websearch.json")
    spec.duration = 0.0015
    return spec


def _run_fat_tree_to_json() -> str:
    """Result document plus the ECMP-resolved path of every injected flow."""
    result = run_scenario(_fat_tree_spec())
    topology = result.topology
    document = result.to_dict()
    document["paths"] = {
        str(flow.flow_id): list(topology.path_of_flow(flow.src, flow.dst,
                                                      flow.flow_id))
        for flow in topology.network.injected_flows
    }
    return json.dumps(document, sort_keys=True)


def test_fat_tree_same_spec_same_seed_byte_identical_in_process():
    assert _run_fat_tree_to_json() == _run_fat_tree_to_json()


def test_fat_tree_serial_vs_parallel_campaign_identical():
    document = _fat_tree_spec().to_dict()
    specs = [
        RunSpec(experiment="scenario", scale="-", seed=seed,
                params={"scenario": document})
        for seed in (0, 1)
    ]
    serial = CampaignExecutor(jobs=1).run(specs)
    parallel = CampaignExecutor(jobs=2).run(specs)
    assert all(outcome.ok for outcome in serial)
    assert all(outcome.ok for outcome in parallel)
    serial_docs = [json.dumps(o.result.to_dict(), sort_keys=True) for o in serial]
    parallel_docs = [json.dumps(o.result.to_dict(), sort_keys=True)
                     for o in parallel]
    assert serial_docs == parallel_docs


def _leaf_spine_spec() -> ScenarioSpec:
    config = replace(get_scale("bench"), fabric_duration=0.0005)
    return leaf_spine_scenario(scheme="dt", config=config,
                               query_size_bytes=60_000)


@pytest.mark.parametrize("make_spec", [_leaf_spine_spec, _fat_tree_spec],
                         ids=["leaf_spine", "fat_tree"])
def test_fabric_runs_back_to_back_byte_identical(make_spec):
    # No reset between the runs: each numbers its own flows, so the second
    # takes the first one's ECMP paths (flow ids feed the hash).
    spec = make_spec()
    spec.duration = min(spec.duration, 0.0005)
    first, second = (json.dumps(run_scenario(spec).to_dict(), sort_keys=True)
                     for _ in range(2))
    assert json.loads(first)["flows"], "expected per-flow records"
    assert first == second


_FAT_TREE_CHILD_SCRIPT = """
import json, sys
from repro.scenario import ScenarioSpec, run_scenario

spec = ScenarioSpec.from_file(sys.argv[1])
spec.duration = 0.0015
result = run_scenario(spec)
topology = result.topology
document = result.to_dict()
document["paths"] = {
    str(f.flow_id): list(topology.path_of_flow(f.src, f.dst, f.flow_id))
    for f in topology.network.injected_flows
}
print(json.dumps(document, sort_keys=True))
"""


def test_fat_tree_two_fresh_processes_byte_identical():
    """ECMP path choice (and everything downstream) across interpreters."""
    def run_child() -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _FAT_TREE_CHILD_SCRIPT,
             str(EXAMPLES_DIR / "scenario_fattree_websearch.json")],
            capture_output=True, text=True, timeout=240,
            env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "random"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run_child()
    assert first == run_child()
    assert first.strip() == _run_fat_tree_to_json()
    # Sanity: the document really carries multi-stage (5-hop) paths.
    paths = json.loads(first)["paths"]
    assert any(len(path) == 5 for path in paths.values())


# ----------------------------------------------------------------------
# Telemetry: off must be byte-identical to pre-PR, on must be deterministic
# ----------------------------------------------------------------------
DATA_DIR = Path(__file__).parent / "data"

#: Frozen config hashes of the dumbbell determinism spec.  The telemetry-off
#: value predates the telemetry section (the default section is omitted from
#: the canonical document -- same trick as ``fabric``); enabling telemetry
#: must change the hash because it changes what the run records.
DUMBBELL_HASH_TELEMETRY_OFF = "50e3aac446ab5994"
DUMBBELL_HASH_TELEMETRY_ON = "1aa6a01081203371"


def _telemetry_spec() -> ScenarioSpec:
    from repro.scenario.spec import TelemetrySpec

    spec = _spec()
    spec.telemetry = TelemetrySpec(enabled=True)
    return spec


def _run_telemetry_to_json() -> str:
    return json.dumps(run_scenario(_telemetry_spec()).to_dict(), sort_keys=True)


def test_telemetry_off_hash_is_frozen():
    assert _spec().config_hash() == DUMBBELL_HASH_TELEMETRY_OFF
    assert _telemetry_spec().config_hash() == DUMBBELL_HASH_TELEMETRY_ON


def test_telemetry_off_document_matches_pre_pr_golden():
    """The default (telemetry off) result document is byte-identical to the
    stored golden, modulo the always-present ``sim`` metadata and ``fct``
    context sections.  (Originally captured before the telemetry PR;
    re-captured when the kernel gained content-keyed same-timestamp
    ordering -- ``Link.event_priority`` -- which changed equal-time
    arrival arbitration.)"""
    golden = json.loads(
        (DATA_DIR / "dumbbell_result_pre_telemetry.json").read_text())
    document = json.loads(_run_to_json())
    sim = document.pop("sim")
    assert sim["events_executed"] > 0
    assert sim["final_time"] > 0
    fct = document.pop("fct")
    assert fct["bottleneck_bps"] > 0
    assert fct["base_rtt"] >= 0
    assert json.dumps(document, sort_keys=True) == json.dumps(
        golden, sort_keys=True)


def test_telemetry_is_zero_perturbation():
    """Enabling the sampling bus must not change simulation outcomes: the
    telemetry-on document minus its telemetry sections equals the
    telemetry-off document exactly (flows, stats, sim metadata and all)."""
    doc_off = json.loads(_run_to_json())
    doc_on = json.loads(_run_telemetry_to_json())
    telemetry = doc_on.pop("telemetry")
    doc_on["spec"].pop("telemetry")
    assert doc_on == doc_off
    # The bus really sampled: full default ring, no overflow, and the final
    # event-count sample agrees with the run's reported total.
    assert telemetry["ticks"] == telemetry["capacity"]
    assert telemetry["dropped_samples"] == 0
    events = telemetry["series"]["sim.events_executed"]
    assert events == sorted(events)
    assert events[-1] == doc_off["sim"]["events_executed"]


def test_telemetry_on_byte_identical_in_process():
    assert _run_telemetry_to_json() == _run_telemetry_to_json()


def test_telemetry_on_serial_vs_parallel_campaign_identical():
    document = _telemetry_spec().to_dict()
    specs = [
        RunSpec(experiment="scenario", scale="-", seed=seed,
                params={"scenario": document})
        for seed in (0, 1)
    ]
    serial = CampaignExecutor(jobs=1).run(specs)
    parallel = CampaignExecutor(jobs=2).run(specs)
    assert all(outcome.ok for outcome in serial)
    assert all(outcome.ok for outcome in parallel)
    serial_docs = [json.dumps(o.result.to_dict(), sort_keys=True)
                   for o in serial]
    parallel_docs = [json.dumps(o.result.to_dict(), sort_keys=True)
                     for o in parallel]
    assert serial_docs == parallel_docs
    # The sampled series ride through the campaign result path.
    for doc in map(json.loads, serial_docs):
        assert "telemetry" in doc["artifacts"]
        assert doc["artifacts"]["telemetry"]["ticks"] > 0


_TELEMETRY_CHILD_SCRIPT = """
import json, sys
from repro.scenario import ScenarioSpec, run_scenario
from repro.scenario.spec import TelemetrySpec

spec = ScenarioSpec.from_file(sys.argv[1])
spec.duration = 0.002
spec.telemetry = TelemetrySpec(enabled=True)
print(json.dumps(run_scenario(spec).to_dict(), sort_keys=True))
"""


def test_telemetry_on_two_fresh_processes_byte_identical():
    def run_child() -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _TELEMETRY_CHILD_SCRIPT,
             str(EXAMPLES_DIR / "scenario_dumbbell_burst.json")],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "random"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run_child()
    assert first == run_child()
    assert first.strip() == _run_telemetry_to_json()
