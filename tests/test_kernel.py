"""Pluggable simulation kernels: seam, pools, selection and determinism.

Covers the kernel registry, the ``Simulator.reset`` / NaN-scheduling
bugfixes, the generation-parity pool battery (random interleavings must
never alias a live object), the pooled-kernel determinism battery (in
process, across campaign workers, across fresh interpreters), the
heap-vs-pooled differential gate and the spec/CLI plumbing that selects
kernels.
"""

import json
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

# Imported before anything that pulls in repro.netsim directly: the
# scenario package settles the netsim<->scenario import cycle.
from repro.scenario import EngineSpec, ScenarioSpec, run_scenario
from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import RunSpec
from repro.sim import Simulator
from repro.sim.kernel import (
    HeapKernel,
    PooledKernel,
    SimKernel,
    available_kernels,
    make_kernel,
    register_kernel,
)
from repro.switchsim.packet import Packet
from repro.switchsim.pool import DescriptorPool, PacketPool
from repro.workloads import reset_workload_ids

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
SRC_DIR = Path(__file__).parent.parent / "src"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_lists_builtin_kernels():
    assert {"heap", "pooled"} <= set(available_kernels())


def test_make_kernel_returns_fresh_instances():
    first = make_kernel("pooled")
    second = make_kernel("pooled")
    assert isinstance(first, PooledKernel)
    assert first is not second
    assert first.packet_pool is not second.packet_pool


def test_make_kernel_unknown_name_lists_available():
    with pytest.raises(KeyError, match="unknown kernel 'vectorized'"):
        make_kernel("vectorized")


def test_register_kernel_collision_raises_without_override():
    with pytest.raises(ValueError, match="already registered"):
        register_kernel("heap", HeapKernel)
    register_kernel("heap", HeapKernel, override=True)  # restores same class


def test_default_simulator_uses_heap_kernel():
    sim = Simulator()
    assert isinstance(sim.kernel, HeapKernel)
    assert sim.kernel.packet_pool is None
    assert sim.kernel.descriptor_pool is None


# ----------------------------------------------------------------------
# Satellite: Simulator.reset() clears the counter and the counting swap
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", ["heap", "pooled"])
def test_reset_zeroes_events_and_undoes_live_counting(kernel_name):
    sim = Simulator(kernel=make_kernel(kernel_name))
    sim.set_live_event_counting(True)
    for i in range(5):
        sim.schedule(i * 0.1, lambda: None)
    assert sim.run() == 5
    assert sim.events_executed == 5
    assert "run" in sim.__dict__  # the counting loop is swapped in

    sim.reset()
    assert sim.events_executed == 0
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert "run" not in sim.__dict__  # back to the class-level loop

    # A reset simulator counts from scratch with the default loop.
    sim.schedule(0.1, lambda: None)
    assert sim.run() == 1
    assert sim.events_executed == 1


# ----------------------------------------------------------------------
# Satellite: NaN is rejected at the scheduling API boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", ["heap", "pooled"])
def test_schedule_rejects_nan(kernel_name):
    sim = Simulator(kernel=make_kernel(kernel_name))
    nan = float("nan")
    with pytest.raises(ValueError, match="cannot schedule an event at time NaN"):
        sim.schedule(nan, lambda: None)
    with pytest.raises(ValueError, match="cannot schedule an event at time NaN"):
        sim.at(nan, lambda: None)
    with pytest.raises(ValueError, match="cannot schedule an event at time NaN"):
        sim.schedule_fast(nan, lambda: None)
    # Nothing reached the heap: a NaN key would poison every later sift.
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# Pooled kernel: event recycling
# ----------------------------------------------------------------------
def test_pooled_kernel_recycles_fired_events():
    kernel = PooledKernel()
    sim = Simulator(kernel=kernel)
    fired = []
    for i in range(4):
        sim.schedule(i * 0.1, lambda i=i: fired.append(i))
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert len(kernel._free_events) == 4
    # The next schedules draw from the free list instead of allocating.
    recycled = kernel._free_events[-1]
    event = sim.schedule(0.5, lambda: fired.append(99))
    assert event is recycled
    sim.run()
    assert fired[-1] == 99


def test_pooled_kernel_recycles_cancelled_events():
    kernel = PooledKernel()
    sim = Simulator(kernel=kernel)
    event = sim.schedule(0.1, lambda: None)
    event.cancel()
    sim.schedule(0.2, lambda: None)
    assert sim.run() == 1  # the cancelled event never fires
    assert len(kernel._free_events) == 2


def test_pooled_kernel_ordering_matches_heap_kernel():
    """Same schedule pattern, same execution order, tie-breaks included."""
    def drive(sim):
        order = []
        # Equal timestamps must run FIFO; cancellations must be skipped.
        sim.schedule(0.2, lambda: order.append("a"))
        sim.schedule(0.1, lambda: order.append("b"))
        doomed = sim.schedule(0.1, lambda: order.append("never"))
        sim.schedule(0.1, lambda: order.append("c"))
        doomed.cancel()
        sim.schedule_fast(0.3, lambda: order.append("d"))
        sim.run()
        return order

    assert (drive(Simulator(kernel=HeapKernel()))
            == drive(Simulator(kernel=PooledKernel()))
            == ["b", "c", "a", "d"])


# ----------------------------------------------------------------------
# Pool aliasing battery: generation parity under random interleavings
# ----------------------------------------------------------------------
def test_packet_pool_double_release_raises():
    pool = PacketPool()
    packet = pool.acquire(size_bytes=100)
    pool.release(packet)
    with pytest.raises(RuntimeError, match="double release"):
        pool.release(packet)


def test_descriptor_pool_double_release_raises_and_clears_packet():
    packets = PacketPool()
    descriptors = DescriptorPool()
    packet = packets.acquire(size_bytes=100)
    descriptor = descriptors.acquire(packet, 2)
    descriptors.release(descriptor, packet_pool=packets)
    assert descriptor.packet is None  # stale reads fail loudly
    assert packet.generation & 1  # the packet went back too
    with pytest.raises(RuntimeError, match="double release"):
        descriptors.release(descriptor)


def test_packet_pool_acquire_reinitializes_everything():
    pool = PacketPool()
    first = pool.acquire(size_bytes=100, flow_id=7, ecn_marked=True)
    first.metadata["sticky"] = True
    first_id = first.packet_id
    pool.release(first)
    second = pool.acquire(size_bytes=200)
    assert second is first  # recycled, not reallocated
    assert second.size_bytes == 200
    assert second.flow_id == -1
    assert second.ecn_marked is False
    assert second.metadata == {}
    assert second.packet_id != first_id
    assert pool.reused == 1


def test_packet_pool_acquire_validates_size():
    pool = PacketPool()
    pool.release(pool.acquire(size_bytes=100))
    with pytest.raises(ValueError, match="packet size must be positive"):
        pool.acquire(size_bytes=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pool_generation_parity_under_random_interleavings(seed):
    """Random acquire/release traffic never aliases a live handle.

    The invariant under test: at every step, every live packet has an even
    generation, every freed packet an odd one, and no two live packets are
    the same object.  A pool bug (double handout, missed parity bump)
    breaks one of these within a few hundred operations.
    """
    rng = random.Random(seed)
    packets = PacketPool()
    descriptors = DescriptorPool()
    live_packets = []
    live_descriptors = []
    for step in range(600):
        op = rng.random()
        if op < 0.35:
            live_packets.append(packets.acquire(size_bytes=rng.randint(1, 1500),
                                                flow_id=step))
        elif op < 0.55 and live_packets:
            packets.release(live_packets.pop(rng.randrange(len(live_packets))))
        elif op < 0.75 and live_packets:
            packet = live_packets.pop(rng.randrange(len(live_packets)))
            live_descriptors.append(
                descriptors.acquire(packet, 1))
        elif live_descriptors:
            descriptor = live_descriptors.pop(
                rng.randrange(len(live_descriptors)))
            descriptors.release(descriptor, packet_pool=packets)

        assert all(not p.generation & 1 for p in live_packets)
        assert all(not d.generation & 1 for d in live_descriptors)
        assert len({id(p) for p in live_packets}) == len(live_packets)
        handles = ([d.packet for d in live_descriptors] + live_packets)
        assert len({id(p) for p in handles}) == len(handles)
    assert packets.reused + descriptors.reused > 0, "battery never recycled"


# ----------------------------------------------------------------------
# EngineSpec: hashing, parsing, validation
# ----------------------------------------------------------------------
def _spec() -> ScenarioSpec:
    spec = ScenarioSpec.from_file(EXAMPLES_DIR / "scenario_dumbbell_burst.json")
    spec.duration = 0.002
    return spec


def test_engine_spec_default_is_omitted_from_canonical_document():
    spec = _spec()
    assert "engine" not in spec.to_dict()
    explicit = replace(spec, engine=EngineSpec(kernel="heap"))
    assert explicit.config_hash() == spec.config_hash()


def test_engine_spec_pooled_changes_the_hash():
    spec = _spec()
    pooled = replace(spec, engine=EngineSpec(kernel="pooled"))
    assert pooled.to_dict()["engine"] == {"kernel": "pooled"}
    assert pooled.config_hash() != spec.config_hash()


def test_engine_spec_from_dict_accepts_shorthand_and_mapping():
    assert EngineSpec.from_dict(None) == EngineSpec()
    assert EngineSpec.from_dict("pooled") == EngineSpec(kernel="pooled")
    assert EngineSpec.from_dict({"kernel": "pooled"}) == EngineSpec(
        kernel="pooled")
    document = _spec().to_dict()
    document["engine"] = "pooled"
    assert ScenarioSpec.from_dict(document).engine.kernel == "pooled"


def test_engine_spec_validate_rejects_unknown_kernel():
    with pytest.raises(ValueError, match="unknown engine.kernel 'warp'"):
        EngineSpec(kernel="warp").validate()


def test_runner_validate_covers_engine_section():
    from repro.scenario.runner import ScenarioRunner

    spec = replace(_spec(), engine=EngineSpec(kernel="warp"))
    with pytest.raises(ValueError, match="unknown engine.kernel"):
        ScenarioRunner().validate(spec)


# ----------------------------------------------------------------------
# Pooled end-to-end: the run actually recycles, results stay identical
# ----------------------------------------------------------------------
def _pooled_spec() -> ScenarioSpec:
    return replace(_spec(), engine=EngineSpec(kernel="pooled"))


def _run_to_json(spec: ScenarioSpec, strip_engine: bool = False) -> str:
    reset_workload_ids()
    document = run_scenario(spec).to_dict()
    if strip_engine:
        document["spec"].pop("engine", None)
    return json.dumps(document, sort_keys=True)


def test_pooled_run_recycles_packets_and_descriptors():
    reset_workload_ids()
    result = run_scenario(_pooled_spec())
    kernel = result.topology.sim.kernel
    assert isinstance(kernel, PooledKernel)
    assert kernel.packet_pool.reused > 0, "packet pool never recycled"
    assert kernel.descriptor_pool.reused > 0, "descriptor pool never recycled"
    assert kernel._free_events, "event free list never used"


def test_pooled_result_byte_identical_to_heap():
    heap = _run_to_json(_spec())
    pooled = _run_to_json(_pooled_spec(), strip_engine=True)
    assert pooled == heap


def test_pooled_byte_identical_in_process():
    assert _run_to_json(_pooled_spec()) == _run_to_json(_pooled_spec())


def test_pooled_serial_vs_parallel_campaign_identical():
    document = _pooled_spec().to_dict()
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


_POOLED_CHILD_SCRIPT = """
import json, sys
from dataclasses import replace
from repro.scenario import EngineSpec, ScenarioSpec, run_scenario
from repro.workloads import reset_workload_ids

spec = ScenarioSpec.from_file(sys.argv[1])
spec.duration = 0.002
spec = replace(spec, engine=EngineSpec(kernel="pooled"))
reset_workload_ids()
print(json.dumps(run_scenario(spec).to_dict(), sort_keys=True))
"""


def test_pooled_two_fresh_processes_byte_identical():
    def run_child() -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _POOLED_CHILD_SCRIPT,
             str(EXAMPLES_DIR / "scenario_dumbbell_burst.json")],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "random"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run_child()
    assert first == run_child()
    assert first.strip() == _run_to_json(_pooled_spec())


# ----------------------------------------------------------------------
# Differential gate and CLI plumbing
# ----------------------------------------------------------------------
def test_differential_small_case_is_identical():
    from repro.perf.cases import get_case
    from repro.perf.differential import run_differential

    outcome = run_differential(get_case("raw_switch_stream/small"),
                               kernel="pooled")
    assert outcome.identical, outcome.diverging_keys
    assert outcome.events > 0
    assert outcome.to_dict()["kernel"] == "pooled"


def test_perf_cli_differential_smoke(capsys):
    from repro.perf.cli import main

    assert main(["differential", "raw_switch_stream/small"]) == 0
    out = capsys.readouterr().out
    assert "identical" in out
    assert "OK" in out


def test_perf_case_with_kernel_keeps_case_id():
    from repro.perf.cases import case_with_kernel, get_case

    case = get_case("incast_single_switch/small")
    pooled = case_with_kernel(case, "pooled")
    assert pooled.case_id == case.case_id
    assert pooled.build().engine.kernel == "pooled"
    assert case.build().engine.is_default()  # the original is untouched


def test_perf_registry_has_pooled_twins():
    from repro.perf.cases import get_case

    twin = get_case("incast_single_switch_pooled/medium")
    assert twin.build().engine.kernel == "pooled"
    assert get_case("websearch_leaf_spine_pooled/medium")


def test_scenario_cli_kernel_override(capsys):
    from repro.scenario.experiment import main

    spec_path = str(EXAMPLES_DIR / "scenario_dumbbell_burst.json")
    assert main(["run", spec_path, "--kernel", "pooled", "--json"]) == 0
    pooled = json.loads(capsys.readouterr().out)
    assert main(["run", spec_path, "--json"]) == 0
    heap = json.loads(capsys.readouterr().out)
    # Same simulation outcome on either kernel, straight from the CLI.
    assert pooled["rows"] == heap["rows"]
    assert pooled["artifacts"]["flows"] == heap["artifacts"]["flows"]


def test_campaign_kernel_axis_sweeps_and_agrees():
    """The examples' engine.kernel axis: distinct hashes, identical rows."""
    from repro.campaign.spec import SweepSpec

    with open(EXAMPLES_DIR / "campaign_kernel_sweep.json") as handle:
        sweep = SweepSpec.from_dict(json.load(handle))
    runs = [r for r in sweep.expand() if r.seed == 0]
    kernels = {r.params["scenario"].get("engine", {}).get("kernel", "heap")
               for r in runs}
    assert kernels == {"heap", "pooled"}
    assert len({r.config_hash() for r in runs}) == 2
    outcomes = CampaignExecutor(jobs=1).run(runs)
    assert all(o.ok for o in outcomes)
    rows = [json.dumps(o.result.to_dict()["rows"], sort_keys=True)
            for o in outcomes]
    assert rows[0] == rows[1]


# ----------------------------------------------------------------------
# Custom kernels remain pluggable end to end
# ----------------------------------------------------------------------
def test_custom_registered_kernel_is_selectable_through_the_spec():
    class TracingKernel(HeapKernel):
        name = "tracing-test"

        def __init__(self):
            super().__init__()
            self.loops = 0

        def run_loop(self, sim, until=None, max_events=None):
            self.loops += 1
            return super().run_loop(sim, until, max_events)

    register_kernel("tracing-test", TracingKernel, override=True)
    try:
        spec = replace(_spec(), engine=EngineSpec(kernel="tracing-test"))
        spec.engine.validate()  # registered, so it validates
        reset_workload_ids()
        result = run_scenario(spec)
        kernel = result.topology.sim.kernel
        assert isinstance(kernel, TracingKernel)
        assert kernel.loops > 0
    finally:
        from repro.sim.kernel import _KERNELS

        _KERNELS.pop("tracing-test", None)
