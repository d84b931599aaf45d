"""The simulation kernel: registry, the one dispatch loop, selection.

Covers the kernel registry, the ``Simulator.reset`` / NaN-scheduling
bugfixes, the dispatch loop's semantics pinned directly, the ``pooled``
compatibility alias, the differential gate and the spec/CLI plumbing that
selects kernels.
"""

import inspect
import json
from dataclasses import replace
from pathlib import Path

import pytest

# Imported before anything that pulls in repro.netsim directly: the
# scenario package settles the netsim<->scenario import cycle.
from repro.scenario import EngineSpec, ScenarioSpec, run_scenario
from repro.sim import Simulator
from repro.sim.kernel import (
    HeapKernel,
    available_kernels,
    make_kernel,
    register_kernel,
)

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_lists_builtin_kernels():
    assert {"heap", "pooled"} <= set(available_kernels())


def test_make_kernel_returns_fresh_instances():
    first = make_kernel("heap")
    second = make_kernel("heap")
    assert isinstance(first, HeapKernel)
    assert first is not second
    assert first._heap is not second._heap


def test_make_kernel_unknown_name_lists_available():
    with pytest.raises(KeyError, match="unknown kernel 'vectorized'"):
        make_kernel("vectorized")


def test_register_kernel_collision_raises_without_override():
    with pytest.raises(ValueError, match="already registered"):
        register_kernel("heap", HeapKernel)
    register_kernel("heap", HeapKernel, override=True)  # restores same class


def test_default_simulator_uses_heap_kernel():
    sim = Simulator()
    assert type(sim.kernel) is HeapKernel


# ----------------------------------------------------------------------
# Satellite: Simulator.reset() clears the (live) event counter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", ["heap", "pooled"])
def test_reset_zeroes_events_and_undoes_live_counting(kernel_name):
    sim = Simulator(kernel=make_kernel(kernel_name))
    for i in range(5):
        sim.schedule(i * 0.1, lambda: None)
    assert sim.run() == 5
    assert sim.events_executed == 5

    sim.reset()
    assert sim.events_executed == 0
    assert sim.now == 0.0
    assert sim.pending_events == 0
    # Nothing is rebound over the class: the one ``run`` is the class's.
    assert not [name for name, value in vars(sim).items()
                if inspect.ismethod(value)]

    # A reset simulator counts from scratch, live.
    seen = []
    sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: seen.append(sim.events_executed))
    assert sim.run() == 2
    assert seen == [1]
    assert sim.events_executed == 2


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
# The one dispatch loop, pinned directly
# ----------------------------------------------------------------------
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

    assert (drive(Simulator(kernel=make_kernel("heap")))
            == drive(Simulator(kernel=make_kernel("pooled")))
            == ["b", "c", "a", "d"])


def test_loop_max_events_stops_before_popping():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
    assert sim.run(max_events=0) == 0
    assert sim.pending_events == 3 and sim.now == 0.0
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1]
    assert sim.pending_events == 1  # the third was never popped
    assert sim.now == pytest.approx(0.2)
    assert sim.run() == 1 and fired == [0, 1, 2]


def test_loop_consumes_a_cancelled_event_beyond_the_horizon():
    sim = Simulator()
    doomed = sim.schedule(5.0, lambda: None)
    doomed.cancel()
    assert sim.run(until=1.0) == 0
    assert sim.pending_events == 0  # consumed, not re-queued
    assert sim.now == 1.0  # the drained queue advanced the clock


def test_loop_requeues_a_live_event_beyond_the_horizon_in_its_fifo_slot():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: order.append("early-scheduled"))
    sim.schedule_fast(5.0, lambda: order.append("fast"))
    assert sim.run(until=1.0) == 0
    assert sim.now == 1.0 and sim.pending_events == 2
    # Pushed after the re-queue, same instant: must run after both.
    sim.at(5.0, lambda: order.append("late-scheduled"))
    assert sim.run() == 3
    assert order == ["early-scheduled", "fast", "late-scheduled"]
    assert sim.now == 5.0


def test_loop_drained_queue_advances_now_to_until_never_backwards():
    sim = Simulator()
    sim.schedule(0.5, lambda: None)
    assert sim.run(until=2.0) == 1
    assert sim.now == 2.0
    assert sim.run(until=1.0) == 0  # an earlier horizon never rewinds
    assert sim.now == 2.0
    assert sim.run() == 0  # no horizon: the clock stays put
    assert sim.now == 2.0


def test_loop_stop_inside_a_callback_returns_after_that_event():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(0.2, lambda: fired.append("b"))
    assert sim.run() == 1
    assert fired == ["a"] and sim.pending_events == 1
    assert sim.now == pytest.approx(0.1)
    assert sim.run() == 1  # a later run() clears the stop request
    assert fired == ["a", "b"]


def test_loop_exception_in_a_callback_leaves_exact_state():
    sim = Simulator()

    def boom():
        assert sim._running
        raise RuntimeError("boom")

    sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, boom)
    sim.schedule(0.3, lambda: None)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim._running is False
    assert sim.events_executed == 1  # the raising event is not counted
    assert sim.now == pytest.approx(0.2)
    assert sim.run() == 1  # the rest of the queue is intact
    assert sim.events_executed == 2


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
# ``pooled`` is a compatibility alias of the heap kernel
# ----------------------------------------------------------------------
def _run_to_json(spec: ScenarioSpec, strip_engine: bool = False) -> str:
    document = run_scenario(spec).to_dict()
    if strip_engine:
        document["spec"].pop("engine", None)
    return json.dumps(document, sort_keys=True)


def test_pooled_is_a_validated_alias_that_runs_the_heap_kernel(capsys):
    from repro.scenario.experiment import main

    document = _spec().to_dict()
    document["engine"] = "pooled"
    spec = ScenarioSpec.from_dict(document)
    spec.engine.validate()
    # Echoed verbatim, so stored documents and hashes keep their identity.
    assert spec.to_dict()["engine"] == {"kernel": "pooled"}
    assert spec.config_hash() == "fcf8e6002bbd045a"  # frozen before PR 23
    assert _spec().config_hash() == "50e3aac446ab5994"
    result = run_scenario(spec)
    assert type(result.topology.sim.kernel) is HeapKernel
    assert result.to_dict()["spec"]["engine"] == {"kernel": "pooled"}
    assert main(["registries"]) == 0
    assert "pooled (alias of heap)" in capsys.readouterr().out


def test_pooled_result_byte_identical_to_heap():
    spec = _spec()
    heap = _run_to_json(spec)
    pooled = _run_to_json(replace(spec, engine=EngineSpec(kernel="pooled")),
                          strip_engine=True)
    assert pooled == heap


# ----------------------------------------------------------------------
# Differential gate and CLI plumbing
# ----------------------------------------------------------------------
class _CountingKernel(HeapKernel):
    """A non-oracle candidate: the heap kernel with an instrumented loop."""

    name = "counting-test"
    loops = 0

    def run_loop(self, sim, until=None, max_events=None):
        type(self).loops += 1
        return super().run_loop(sim, until, max_events)


@pytest.fixture
def counting_kernel():
    from repro.sim.kernel import KERNELS

    _CountingKernel.loops = 0
    register_kernel(_CountingKernel.name, _CountingKernel)
    yield _CountingKernel
    KERNELS.unregister(_CountingKernel.name)


def test_differential_small_case_is_identical(counting_kernel):
    from repro.perf import load_case
    from repro.perf.differential import run_differential

    outcome = run_differential(load_case("raw_switch_stream"),
                               kernel=counting_kernel.name)
    assert outcome.identical, outcome.diverging_keys
    assert outcome.events > 0
    assert outcome.to_dict()["kernel"] == counting_kernel.name
    assert counting_kernel.loops == 1  # the candidate really ran


def test_perf_cli_differential_smoke(capsys, counting_kernel):
    from repro.perf.cli import main

    assert main(["differential", "raw_switch_stream",
                 "--kernel", counting_kernel.name]) == 0
    out = capsys.readouterr().out
    assert "identical" in out
    assert "OK" in out


@pytest.mark.parametrize("argv", [[], ["--kernel", "pooled"],
                                  ["--shards", "1"]])
def test_perf_cli_differential_refuses_a_vacuous_comparison(capsys, argv):
    """heap vs heap (or its alias) would be green by construction."""
    from repro.perf.cli import main

    assert main(["differential", "raw_switch_stream"] + argv) == 1
    out = capsys.readouterr().out
    assert ("nothing to compare: pass `--shards N` or a non-oracle "
            "`--kernel`") in out
    assert "identical" not in out  # no case was run


def test_with_engine_overrides_compose_and_leave_the_spec_untouched():
    from repro.perf import load_case

    spec = load_case("incast_single_switch")
    pooled = spec.with_engine(kernel="pooled")
    assert pooled.engine.kernel == "pooled"
    sharded = pooled.with_engine(shards=2, partition="pods")
    # Each override replaces its own field only; None keeps the spec's.
    assert (sharded.engine.kernel, sharded.engine.shards,
            sharded.engine.partition) == ("pooled", 2, "pods")
    assert sharded.with_engine().engine == sharded.engine
    assert spec.engine.is_default()  # the original is untouched
    assert pooled.engine.shards == 1


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


# ----------------------------------------------------------------------
# Custom kernels remain pluggable end to end
# ----------------------------------------------------------------------
def test_custom_registered_kernel_is_selectable_through_the_spec(
        counting_kernel):
    spec = replace(_spec(), engine=EngineSpec(kernel=counting_kernel.name))
    spec.engine.validate()  # registered, so it validates
    result = run_scenario(spec)
    assert type(result.topology.sim.kernel) is counting_kernel
    assert counting_kernel.loops > 0
