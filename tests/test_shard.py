"""Sharded conservative-parallel execution: byte-identity and loud failure.

The sharded engine's contract is strict: for any shard count the topology
supports, the merged ``ScenarioResult.to_dict()`` document must be
**byte-identical** to the single-process heap oracle's (modulo the spec's
own ``engine`` section, which records which engine ran).  This module
checks that contract at every level of the determinism ladder -- in
process, across campaign workers, across fresh interpreters with hash
randomization -- plus the partitioner's validation guarantees and the
executor's crash behavior (loud ``ShardCrash`` with the worker's
traceback, never a hang).
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

# Imported before anything that pulls in repro.netsim directly: the
# scenario package settles the netsim<->scenario import cycle.
from repro.scenario import EngineSpec, ScenarioSpec, run_scenario
from repro.scenario.spec import FabricSpec, LoadBalancerSpec, WorkloadSpec
from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import RunSpec
from repro.core.registry import make_buffer_manager
from repro.netsim.partition import partition_topology
from repro.scenario.topologies import make_topology
from repro.sim.shard import ShardCrash

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
SRC_DIR = Path(__file__).parent.parent / "src"


#: Variants of the base spec: each one exercises a different part of
#: ``ScenarioRunner.build`` that the parent and every worker share.
VARIANTS = {
    "base": {},
    "flowlet": {"lb": LoadBalancerSpec(name="flowlet")},
    "alpha_overrides": {"alpha_overrides": {0: 8.0, 1: 1.0}},
    "degraded": {"fabric": FabricSpec(degraded=[["agg0_0", "core0", 0.5]])},
}


def _spec(shards: int = 1, variant: str = "base") -> ScenarioSpec:
    # The fat-tree websearch example: k=4 (4 pods), two ECMP stages, three
    # workload families -- the richest standing determinism scenario, and a
    # pod cut supports up to 4 shards.
    spec = ScenarioSpec.from_file(EXAMPLES_DIR / "scenario_fattree_websearch.json")
    spec.duration = 0.0015
    spec = replace(spec, **VARIANTS[variant])
    if shards > 1:
        spec = replace(spec, engine=EngineSpec(shards=shards))
    return spec


def _to_json(result) -> str:
    """Canonical document with the engine section stripped.

    The sharded spec embeds ``engine.shards`` (it is part of the config
    hash), so raw documents always differ from the oracle's; which engine
    ran is spec identity, not simulation outcome.
    """
    document = result.to_dict()
    document["spec"].pop("engine", None)
    return json.dumps(document, sort_keys=True)


def _run_to_json(spec: ScenarioSpec) -> str:
    return _to_json(run_scenario(spec))


# ----------------------------------------------------------------------
# Partitioner: cut validity is decided at validation time
# ----------------------------------------------------------------------
def _build_topology(spec: ScenarioSpec):
    return make_topology(spec.topology.kind,
                         lambda: make_buffer_manager("dt"),
                         **spec.resolved_topology_params())


def test_fat_tree_auto_partition_cuts_at_agg_core_links():
    topology = _build_topology(_spec())
    partition = partition_topology(topology, 2)
    assert partition.strategy == "pods"
    assert partition.num_shards == 2
    # Exact node cover: every switch and host owned exactly once.
    network = topology.network
    expected = set(network.switch_nodes) | {f"h{h}" for h in network.hosts}
    assert set(partition.assignment) == expected
    # Pod cut: only agg<->core links cross shards, every one with the
    # positive core-tier delay, and the lookahead is their minimum.
    assert partition.cut_links
    for src, dst in partition.cut_links:
        assert {src[:3], dst[:3]} == {"agg", "cor"}
    delays = [network.links[pair].link.delay for pair in partition.cut_links]
    assert all(d > 0 for d in delays)
    assert partition.lookahead == min(delays)


def test_partition_rejects_more_shards_than_pods():
    topology = _build_topology(_spec())  # k=4 -> at most 4 pod shards
    with pytest.raises(ValueError, match="at most one shard per pod"):
        partition_topology(topology, 8)


def test_partition_rejects_unknown_strategy_and_bad_counts():
    topology = _build_topology(_spec())
    with pytest.raises(ValueError, match="unknown partition strategy"):
        partition_topology(topology, 2, "metis")
    with pytest.raises(ValueError, match="num_shards must be >= 1"):
        partition_topology(topology, 0)


def test_runner_validate_rejects_unpartitionable_specs():
    from repro.perf import load_case
    from repro.scenario.runner import ScenarioRunner

    # Switch-level topologies have no link graph to cut.
    raw = load_case("raw_switch_stream")
    raw = replace(raw, engine=EngineSpec(shards=2))
    with pytest.raises(ValueError, match="network-level topology"):
        ScenarioRunner().validate(raw)


def test_validate_spec_file_resolves_the_partition(tmp_path):
    from repro.scenario.experiment import validate_spec_file

    document = _spec().to_dict()
    document["engine"] = {"shards": 8}  # k=4: only 4 pods
    path = tmp_path / "overcut.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="at most one shard per pod"):
        validate_spec_file(str(path))


# ----------------------------------------------------------------------
# Byte-identity ladder: in process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards, variant", [
    pytest.param(2, "base", id="2"),
    pytest.param(4, "base", id="4"),
    pytest.param(2, "flowlet", id="2-flowlet"),
    pytest.param(2, "alpha_overrides", id="2-alpha_overrides"),
    pytest.param(2, "degraded", id="2-degraded"),
])
def test_sharded_byte_identical_to_oracle_in_process(shards, variant):
    sharded = run_scenario(_spec(shards, variant))
    oracle = run_scenario(_spec(1, variant))
    assert _to_json(sharded) == _to_json(oracle)
    # The merged switches are the parent's real ones, carrying their owner
    # shard's whole SwitchStats state -- byte counters, per-queue dicts and
    # drop samples included, none of which the document shows.
    merged = [vars(switch.stats) for switch in sharded.switches()]
    expected = [vars(switch.stats) for switch in oracle.switches()]
    assert merged == expected
    assert any(state["transmitted_bytes"] > 0 for state in merged)


def test_switch_stats_state_survives_the_report_round_trip():
    # What a worker reports is JSON: the per-queue dicts come back keyed by
    # strings and the queue trace as a list, and the parent restores both.
    from repro.sim.shard import _load_stats, _stats_state
    from repro.switchsim.stats import SwitchStats

    stats = SwitchStats()
    stats.arrived_packets, stats.arrived_bytes = 3, 4500
    stats.dropped_packets, stats.dropped_bytes = 1, 1500
    stats.drop_reasons["threshold"] += 1
    stats.per_queue_drops[2] += 1
    stats.first_drop_time[2] = 1.25e-05
    stats.first_drop_queue_length[2] = 3000
    stats.buffer_utilization_on_drop.append(0.5)
    stats.bandwidth_utilization_on_drop.append(0.75)
    stats.record_expulsion(1, 1500)
    stats.queue_trace_flat.extend([1e-06, 2, 3000, 4500.5])
    merged = SwitchStats()
    _load_stats(merged, json.loads(json.dumps(_stats_state(stats))))
    assert vars(merged) == vars(stats)


def test_unknown_host_fails_in_the_parent_like_single_process(monkeypatch):
    # A flow to a host the k=4 fat-tree does not have: the single-process
    # run rejects it, and so must the sharded parent -- before any worker
    # starts, not as a ShardCrash from inside one.
    import repro.sim.shard as shard_mod

    def no_workers(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(shard_mod, "WorkerProcess", no_workers)
    for shards in (1, 2):
        spec = replace(_spec(shards), workloads=[WorkloadSpec("fixed", {
            "flows": [{"src": 0, "dst": 99, "size_bytes": 1000}]})])
        with pytest.raises(ValueError, match="unknown hosts 0->99"):
            run_scenario(spec)


def test_sharded_repeated_run_byte_identical_in_process():
    assert _run_to_json(_spec(2)) == _run_to_json(_spec(2))


def test_shard_stats_ride_outside_the_canonical_document():
    result = run_scenario(_spec(2))
    stats = result.shard_stats
    assert stats["partition"]["num_shards"] == 2
    assert stats["rounds"] > 0
    assert len(stats["shards"]) == 2
    for row in stats["shards"]:
        assert row["events"] > 0
        assert row["nodes"] > 0
        assert row["peak_rss_kb"] > 0
    # Handoffs are conserved: every record sent was delivered somewhere.
    assert (sum(r["handoffs_out"] for r in stats["shards"])
            == sum(r["handoffs_in"] for r in stats["shards"]) > 0)
    assert "shard_stats" not in result.to_dict()


# ----------------------------------------------------------------------
# Byte-identity ladder: serial vs parallel campaign workers
# ----------------------------------------------------------------------
def test_sharded_serial_vs_parallel_campaign_identical():
    document = _spec(2).to_dict()
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


# ----------------------------------------------------------------------
# Byte-identity ladder: fresh interpreters with hash randomization
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import json, sys
from dataclasses import replace
from repro.scenario import EngineSpec, ScenarioSpec, run_scenario

spec = ScenarioSpec.from_file(sys.argv[1])
spec.duration = 0.0015
spec = replace(spec, engine=EngineSpec(shards=int(sys.argv[2])))
document = run_scenario(spec).to_dict()
document["spec"].pop("engine", None)
print(json.dumps(document, sort_keys=True))
"""


def test_sharded_two_fresh_processes_byte_identical():
    def run_child() -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT,
             str(EXAMPLES_DIR / "scenario_fattree_websearch.json"), "2"],
            capture_output=True, text=True, timeout=240,
            env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "random"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run_child()
    assert first == run_child()
    # The fresh sharded processes also agree with the in-process oracle.
    assert first.strip() == _run_to_json(_spec())


# ----------------------------------------------------------------------
# Telemetry and static fabric state survive the merge byte-for-byte
# ----------------------------------------------------------------------
def test_sharded_with_telemetry_byte_identical_to_oracle():
    from repro.scenario.spec import TelemetrySpec

    def spec(shards: int) -> ScenarioSpec:
        base = _spec(shards)
        return replace(base, telemetry=TelemetrySpec(enabled=True))

    assert _run_to_json(spec(2)) == _run_to_json(spec(1))


# ----------------------------------------------------------------------
# The sharded live dashboard (``run --live`` with ``engine.shards > 1``)
# ----------------------------------------------------------------------
def test_live_run_paints_the_shard_board_and_one_row_per_shard(
        tmp_path, capsys, bench_specs):
    from repro.scenario.experiment import main

    document = bench_specs.fabric_websearch(1, "tiny")["dt_shards2"]
    spec_path = tmp_path / "websearch_shards2.json"
    spec_path.write_text(json.dumps(document))
    assert main(["run", str(spec_path), "--live"]) == 0
    captured = capsys.readouterr()
    # stderr is not a TTY: the board appends one compact line per paint.
    board = [line for line in captured.err.splitlines()
             if line.startswith(("[live]", "[done]"))]
    assert board[-1].startswith("[done] bench-fabric-websearch-dt")
    assert "(2 shards)" in board[-1] and "100.0%" in board[-1]
    rows = [line for line in captured.err.splitlines()
            if line.startswith("  shard ")]
    assert [row.split(":")[0] for row in rows] == ["  shard 0", "  shard 1"]
    assert "[shards=2 strategy=leaves" in captured.err
    assert "hash=" in captured.out


# ----------------------------------------------------------------------
# Crash containment: one dead shard fails the run loudly, never hangs
# ----------------------------------------------------------------------
def test_one_crashing_shard_raises_shard_crash_with_traceback(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("fault injection via monkeypatch needs fork workers")
    import repro.sim.shard as shard_mod

    original_run = shard_mod._ShardWorker.run

    def sabotaged(self):
        if self.shard == 1:
            raise RuntimeError("synthetic shard fault")
        return original_run(self)

    # Fork workers inherit the patched class, so exactly shard 1 dies.
    monkeypatch.setattr(shard_mod._ShardWorker, "run", sabotaged)
    with pytest.raises(ShardCrash) as excinfo:
        run_scenario(_spec(2))
    message = str(excinfo.value)
    assert "shard 1" in message
    assert "synthetic shard fault" in message
    assert "Traceback" in message  # the worker's own stack, not the parent's


# ----------------------------------------------------------------------
# Process model: shard workers are the farm's WorkerProcesses
# ----------------------------------------------------------------------
def _children_of(parent: int):
    """Live (or zombie) direct children of ``parent``, from /proc."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # "pid (comm) state ppid ..." -- comm may itself contain ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            pids.add(int(entry))
    return pids


def _alive(pid: int) -> bool:
    """Running or sleeping; a zombie has exited and counts as gone."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


_LONG_RUN_SCRIPT = """
import sys
from dataclasses import replace
from repro.scenario import EngineSpec, ScenarioSpec, run_scenario

spec = ScenarioSpec.from_file(sys.argv[1])
run_scenario(replace(spec, engine=EngineSpec(shards=2)))
"""


def test_shard_workers_exit_when_their_parent_is_killed():
    from repro.process import CLOSE_GRACE_S

    proc = subprocess.Popen(
        [sys.executable, "-c", _LONG_RUN_SCRIPT,
         str(EXAMPLES_DIR / "scenario_fattree_websearch.json")],
        env={"PYTHONPATH": str(SRC_DIR)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    shards = set()
    try:
        deadline = time.monotonic() + 60
        while len(shards) < 2 and proc.poll() is None:
            assert time.monotonic() < deadline, "no shard workers started"
            shards = _children_of(proc.pid)
            time.sleep(0.05)
        assert len(shards) == 2, "the run ended before it could be killed"
        time.sleep(1.0)  # into the round exchange
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + CLOSE_GRACE_S + 3
        while any(map(_alive, shards)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in shards if _alive(pid)]
    finally:
        proc.kill()
        proc.wait()
        for pid in shards:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def test_a_silently_killed_shard_raises_shard_crash_with_its_exit_code(
        monkeypatch):
    import repro.sim.shard as shard_mod

    original = shard_mod._ShardWorker._collect_outbound

    def killed(self):
        if self.shard == 1 and self.rounds == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self)

    monkeypatch.setattr(shard_mod._ShardWorker, "_collect_outbound", killed)
    before = _children_of(os.getpid())
    with pytest.raises(ShardCrash, match=r"shard 1 .*exited -9"):
        run_scenario(_spec(2))
    assert _children_of(os.getpid()) == before


def test_sharding_needs_fork(monkeypatch):
    from repro.scenario.runner import ScenarioRunner

    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError,
                       match=f"POSIX only: .*os.fork is missing on {sys.platform}"):
        ScenarioRunner().validate(_spec(2))
