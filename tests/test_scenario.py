"""Tests for the declarative scenario layer.

Covers the five registries (schemes, topologies, workloads, transport
profiles, load balancers), ScenarioSpec JSON round-trips and hash
stability, the runner on
custom scheme x topology x workload combinations, the campaign layer's
``"scenario"`` grid type, and -- via golden files captured from the original
hand-wired harnesses -- row-for-row equivalence of the ported figure
experiments.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import RunSpec, ScenarioGridSpec, SweepSpec, set_by_path
from repro.campaign.cli import main as campaign_main
from repro.core.registry import (
    make_buffer_manager,
    register_scheme,
    scheme_defaults,
    unregister_scheme,
)
from repro.core.dt import DynamicThreshold
from repro.experiments.common import ExperimentResult
from repro.perf.cases import get_case
from repro.scenario import (
    ScenarioRunner,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TransportSpec,
    WorkloadSpec,
    available_topologies,
    available_workloads,
    fat_tree_scenario,
    leaf_spine_scenario,
    register_topology,
    register_transport_profile,
    register_workload,
    run_scenario,
    single_switch_scenario,
    unregister_topology,
    unregister_transport_profile,
    unregister_workload,
)
from repro.scenario.scales import get_scale
from repro.scenario.topologies import make_topology
from repro.sim import Simulator
from repro.workloads import reset_workload_ids

DATA_DIR = Path(__file__).parent / "data"
EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def _dumbbell_burst_spec() -> ScenarioSpec:
    return ScenarioSpec.from_file(EXAMPLES_DIR / "scenario_dumbbell_burst.json")


# ----------------------------------------------------------------------
# Scheme registry: defaults, collision protection
# ----------------------------------------------------------------------
class TestSchemeRegistry:
    def test_paper_defaults(self):
        assert scheme_defaults("dt") == {"alpha": 1.0}
        assert scheme_defaults("abm") == {"alpha": 2.0}
        assert scheme_defaults("occamy") == {"alpha": 8.0}
        assert make_buffer_manager("occamy").alpha == 8.0
        assert make_buffer_manager("abm").alpha == 2.0

    def test_kwargs_override_defaults(self):
        assert make_buffer_manager("occamy", alpha=2.5).alpha == 2.5

    def test_collision_raises(self):
        register_scheme("collision_probe", DynamicThreshold)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheme("collision_probe", DynamicThreshold)
        finally:
            unregister_scheme("collision_probe")

    def test_override_allows_replacement(self):
        register_scheme("override_probe", DynamicThreshold,
                        defaults={"alpha": 1.0})
        try:
            register_scheme("override_probe", DynamicThreshold,
                            defaults={"alpha": 3.0}, override=True)
            assert make_buffer_manager("override_probe").alpha == 3.0
        finally:
            unregister_scheme("override_probe")

    def test_defaults_unknown_scheme(self):
        with pytest.raises(KeyError):
            scheme_defaults("not_a_scheme")


# ----------------------------------------------------------------------
# Topology / workload / transport-profile registries
# ----------------------------------------------------------------------
class TestScenarioRegistries:
    def test_topology_collision(self):
        register_topology("topo_probe", lambda factory, **kw: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_topology("topo_probe", lambda factory, **kw: None)
            register_topology("topo_probe", lambda factory, **kw: None,
                              override=True)
        finally:
            unregister_topology("topo_probe")

    def test_workload_collision(self):
        register_workload("wl_probe", lambda ctx, **kw: [])
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_workload("wl_probe", lambda ctx, **kw: [])
        finally:
            unregister_workload("wl_probe")

    def test_transport_profile_collision_and_validation(self):
        register_transport_profile("tp_probe", {"min_rto": 1e-3})
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_transport_profile("tp_probe", {})
        finally:
            unregister_transport_profile("tp_probe")
        with pytest.raises(TypeError):
            register_transport_profile("tp_bogus", {"not_a_field": 1})

    def test_scenario_zoo_entries_registered(self):
        # The zoo additions must be visible to sweeps and the CLI for free.
        assert "fat_tree" in available_topologies()
        for kind in ("permutation", "hotspot", "trace_replay"):
            assert kind in available_workloads()

    def test_load_balancer_registry_is_fifth(self):
        # The lb registry rides the same rails as the other four: built-in
        # entries present, collision protection, unknown-name KeyError.
        from repro.lb import (
            available_load_balancers,
            make_load_balancer,
            register_load_balancer,
            unregister_load_balancer,
        )

        assert available_load_balancers() == [
            "drill", "ecmp", "flowlet", "spray"]
        register_load_balancer("lb_probe", lambda: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_load_balancer("lb_probe", lambda: None)
        finally:
            unregister_load_balancer("lb_probe")
        with pytest.raises(KeyError, match="bogus"):
            make_load_balancer("bogus")

    def test_runner_validates_names(self):
        spec = _dumbbell_burst_spec()
        bad = ScenarioSpec.from_dict(
            {**spec.to_dict(), "scheme": {"name": "bogus", "kwargs": {}}})
        with pytest.raises(KeyError, match="bogus"):
            ScenarioRunner().validate(bad)
        bad = ScenarioSpec.from_dict(
            {**spec.to_dict(), "topology": {"kind": "torus", "params": {}}})
        with pytest.raises(KeyError, match="torus"):
            ScenarioRunner().validate(bad)


# ----------------------------------------------------------------------
# ScenarioSpec serialization
# ----------------------------------------------------------------------
class TestScenarioSpec:
    def test_json_round_trip(self):
        spec = single_switch_scenario(
            scheme="occamy", config=get_scale("bench"), query_size_bytes=40_000,
            seed=3, alpha_overrides={0: 8.0, 1: 1.0},
            extra_flows=[dict(src=1, dst=0, size_bytes=5000, start_time=0.0,
                              priority=1)],
        )
        rebuilt = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
        assert rebuilt == spec
        assert rebuilt.config_hash() == spec.config_hash()
        # alpha override keys survive the str->int round trip
        assert rebuilt.alpha_overrides == {0: 8.0, 1: 1.0}

    def test_config_hash_pinned(self):
        # Canonical-encoding stability: if this hash moves, every stored
        # campaign artifact of a scenario sweep silently misses on resume.
        assert _dumbbell_burst_spec().config_hash() == "22be1795e8c548bf"

    def test_hash_sensitivity(self):
        spec = _dumbbell_burst_spec()
        bumped = ScenarioSpec.from_dict({**spec.to_dict(), "seed": spec.seed + 1})
        assert bumped.config_hash() != spec.config_hash()

    def test_scheme_shorthand(self):
        assert SchemeSpec.from_dict("dt") == SchemeSpec(name="dt")
        assert TopologySpec.from_dict("dumbbell") == TopologySpec(kind="dumbbell")


# ----------------------------------------------------------------------
# Runner on combinations no figure covers
# ----------------------------------------------------------------------
class TestScenarioRunner:
    def test_dumbbell_burst_runs(self):
        reset_workload_ids()
        result = run_scenario(_dumbbell_burst_spec())
        assert result.flow_stats is not None
        assert result.flow_stats.completion_fraction() > 0.9
        assert len(result.switches()) == 2  # dumbbell: left + right
        row = result.summary_row()
        assert row["scheme"] == "occamy" and row["topology"] == "dumbbell"
        assert "avg_fct_ms" in row

    def test_leaf_spine_all_reduce_scenario(self):
        reset_workload_ids()
        spec = leaf_spine_scenario(
            scheme="dt", config=get_scale("bench"), query_size_bytes=60_000,
            background_kind="all_reduce", background_flow_size=16_384,
        )
        result = run_scenario(spec)
        assert result.flow_stats.completed_queries()

    def test_fat_tree_builder_round_trips_and_runs(self):
        reset_workload_ids()
        config = replace(get_scale("bench"), fabric_duration=0.001)
        spec = fat_tree_scenario(
            scheme="occamy", config=config, query_size_bytes=60_000,
            background_kind="permutation", background_flow_size=8_192,
        )
        assert spec.topology.kind == "fat_tree"
        assert spec.topology.params["k"] == config.fattree_k
        rebuilt = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
        assert rebuilt.config_hash() == spec.config_hash()
        result = run_scenario(spec)
        assert result.flow_stats.completed_queries()
        # permutation background: one flow per host rode along
        background = [f for f in result.topology.network.injected_flows
                      if f.query_id is None]
        assert len(background) == result.topology.num_hosts

    def test_hotspot_workload_concentrates_on_receiver(self):
        reset_workload_ids()
        spec = ScenarioSpec(
            name="hotspot-single-switch",
            scheme=SchemeSpec("dt"),
            topology=TopologySpec("single_switch", {"num_hosts": 6}),
            workloads=[WorkloadSpec("hotspot", params={
                "flows_per_second": 20_000,
                "hotspot_fraction": 0.9,
                "num_hotspots": 1,
                "flow_size_bytes": 4000,
            })],
            duration=0.003,
        )
        result = run_scenario(spec)
        flows = result.topology.network.injected_flows
        assert flows
        # Host 5 (the default hotspot: the last host) receives the bulk.
        hot = sum(1 for f in flows if f.dst == 5)
        assert hot / len(flows) > 0.6

    def test_packet_and_network_workloads_do_not_mix(self):
        spec = _dumbbell_burst_spec()
        mixed = ScenarioSpec.from_dict(spec.to_dict())
        mixed.workloads.append(WorkloadSpec(
            kind="packet_burst",
            params={"burst_bytes": 3000, "rate_bps": 1e9, "port": 0}))
        with pytest.raises(ValueError, match="packet-level topology"):
            run_scenario(mixed)

    def test_packet_level_injection_allocates_no_events(self, monkeypatch):
        # Arrivals go in as one stream: no Event, closure or heap entry per
        # packet -- whatever the packet count, the heap holds the next
        # arrival only.  Same dispatch order as one callback per packet,
        # hence the same event count.
        heap_at_run_start = []
        real_run = Simulator.run

        def spying_run(sim, *args, **kwargs):
            heap_at_run_start.append(
                (len(sim.kernel._heap), sim.pending_events))
            return real_run(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", spying_run)
        reset_workload_ids()
        result = run_scenario(get_case("raw_switch_stream/small").build())
        assert heap_at_run_start == [(1, 4441)]
        assert result.switch.stats.arrived_packets == 4441
        assert result.events_executed == 5131  # benchmarks/baseline_small.json

    @pytest.mark.parametrize("bad_time, message", [
        (-1e-6, "into the past"), (float("nan"), "time NaN")])
    def test_packet_level_arrival_times_validated(self, bad_time, message):
        register_workload("wl_bad_time", lambda ctx, **kw: [(bad_time, 1500, 0)])
        try:
            spec = ScenarioSpec(
                name="bad-arrival",
                scheme=SchemeSpec("dt"),
                topology=TopologySpec("raw_switch", {
                    "num_ports": 2, "port_rate_bps": 1e10, "buffer_bytes": 100_000}),
                workloads=[WorkloadSpec("wl_bad_time", {})],
                duration=0.001,
            )
            with pytest.raises(ValueError, match=message):
                run_scenario(spec)
        finally:
            unregister_workload("wl_bad_time")
        # Rejected before anything is scheduled, good arrivals included.
        topology = make_topology(
            "raw_switch", lambda: make_buffer_manager("dt"),
            **spec.resolved_topology_params())
        with pytest.raises(ValueError, match=message):
            ScenarioRunner()._run_packet_level(spec, topology, [
                (spec.workloads[0], [(0.0, 1500, 0), (bad_time, 1500, 1)])])
        assert topology.sim.pending_events == 0
        assert topology.switch.stats.arrived_packets == 0

    def test_pinned_id_collision_rejected(self):
        # A 'fixed' workload with pinned ids replayed after the id counter
        # was reset collides with freshly assigned ids; FlowStats would
        # silently overwrite records, so the runner must refuse loudly.
        reset_workload_ids()
        spec = ScenarioSpec(
            name="id-collision",
            scheme=SchemeSpec("dt"),
            topology=TopologySpec("single_switch", {"num_hosts": 3}),
            workloads=[
                WorkloadSpec("burst", {"burst_bytes": 4000, "receiver_index": 0}),
                WorkloadSpec("fixed", {"flows": [
                    {"src": 1, "dst": 0, "size_bytes": 4000, "start_time": 0.0,
                     "flow_id": 1}]}),
            ],
            duration=0.001,
        )
        with pytest.raises(ValueError, match="duplicate flow_id"):
            run_scenario(spec)

    def test_fixed_workload_pins_ids(self):
        reset_workload_ids()
        spec = ScenarioSpec(
            name="fixed-ids",
            scheme=SchemeSpec("dt"),
            topology=TopologySpec("single_switch", {"num_hosts": 2}),
            workloads=[WorkloadSpec("fixed", {"flows": [
                {"src": 0, "dst": 1, "size_bytes": 4000, "start_time": 0.0,
                 "flow_id": 77}]})],
            transport=TransportSpec(),
            duration=0.001,
        )
        result = run_scenario(spec)
        flows = result.topology.network.injected_flows
        assert [f.flow_id for f in flows] == [77]


# ----------------------------------------------------------------------
# Campaign integration: the "scenario" grid type
# ----------------------------------------------------------------------
class TestScenarioGrid:
    def test_set_by_path(self):
        doc = {"scheme": {"kwargs": {"alpha": 1.0}},
               "workloads": [{"params": {"load": 0.1}}]}
        set_by_path(doc, "scheme.kwargs.alpha", 4.0)
        set_by_path(doc, "workloads[0].params.load", 0.7)
        set_by_path(doc, "topology.params.num_spines", 2)
        assert doc["scheme"]["kwargs"]["alpha"] == 4.0
        assert doc["workloads"][0]["params"]["load"] == 0.7
        assert doc["topology"]["params"]["num_spines"] == 2
        with pytest.raises(ValueError, match="out of range"):
            set_by_path(doc, "workloads[3].params.load", 0.5)

    def test_expansion_and_hash_identity(self):
        sweep = SweepSpec.from_file(
            EXAMPLES_DIR / "campaign_scenario_alpha_fabric.json")
        runs = sweep.expand()
        assert len(runs) == 4  # 2 alphas x 2 spine counts
        assert all(r.experiment == "scenario" for r in runs)
        assert len({r.config_hash() for r in runs}) == 4
        alphas = sorted(r.params["scenario"]["scheme"]["kwargs"]["alpha"]
                        for r in runs)
        assert alphas == [1.0, 1.0, 8.0, 8.0]
        # Axes mutate copies, never the base document.
        grid = sweep.grids[0]
        assert grid.scenario["scheme"]["kwargs"]["alpha"] == 8.0

    def test_grid_round_trip(self):
        grid = ScenarioGridSpec(
            scenario={"name": "t", "scheme": {"name": "dt", "kwargs": {}},
                      "topology": {"kind": "dumbbell", "params": {}}},
            axes={"scheme.kwargs.alpha": [1.0, 2.0]},
            seeds=[0, 1],
        )
        sweep = SweepSpec(name="round", grids=[grid])
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert [r.config_hash() for r in rebuilt.expand()] == \
               [r.config_hash() for r in sweep.expand()]

    def test_omitted_seeds_default_to_document_seed(self):
        sweep = SweepSpec.from_dict({
            "name": "seedless",
            "grids": [{
                "type": "scenario",
                "scenario": {"name": "t", "seed": 42,
                             "scheme": {"name": "dt", "kwargs": {}},
                             "topology": {"kind": "dumbbell", "params": {}}},
            }],
        })
        runs = sweep.expand()
        assert [r.seed for r in runs] == [42]
        # An explicit seeds list still overrides the embedded seed.
        sweep = SweepSpec.from_dict({
            "name": "seeded",
            "grids": [{
                "type": "scenario",
                "seeds": [1, 2],
                "scenario": {"name": "t", "seed": 42,
                             "scheme": {"name": "dt", "kwargs": {}},
                             "topology": {"kind": "dumbbell", "params": {}}},
            }],
        })
        assert sorted(r.seed for r in sweep.expand()) == [1, 2]

    def test_unknown_grid_type(self):
        with pytest.raises(ValueError, match="unknown grid type"):
            SweepSpec.from_dict({"name": "x", "grids": [{"type": "wat"}]})

    def test_label_summarizes_scenario_dict(self):
        run = RunSpec(experiment="scenario", scale="-", seed=0,
                      params={"scenario": {"name": "fabric-incast"}})
        assert "scenario=fabric-incast" in run.label()

    def test_scenario_sweep_end_to_end(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        store = tmp_path / "store"
        document = _dumbbell_burst_spec().to_dict()
        document["duration"] = 0.002
        spec_path.write_text(json.dumps({
            "name": "mini-scenario-sweep",
            "grids": [{
                "type": "scenario",
                "scenario": document,
                "axes": {"scheme.kwargs.alpha": [1.0, 8.0]},
            }],
        }))
        assert campaign_main(["run", str(spec_path), "--store", str(store)]) == 0
        assert campaign_main(["report", "--store", str(store),
                              "--metric", "avg_fct_ms", "--group-by", "alpha",
                              "--format", "csv"]) == 0
        # Resume serves both runs from the cache.
        assert campaign_main(["run", str(spec_path), "--store", str(store),
                              "--resume"]) == 0


# ----------------------------------------------------------------------
# CSV rendering
# ----------------------------------------------------------------------
class TestExperimentResultCsv:
    def test_to_csv(self):
        result = ExperimentResult("demo")
        result.add_row(scheme="dt", value=1.5)
        result.add_row(scheme="occamy", other="x,y")
        lines = result.to_csv().splitlines()
        assert lines[0] == "scheme,value,other"
        assert lines[1] == "dt,1.5,"
        assert lines[2] == 'occamy,,"x,y"'


# ----------------------------------------------------------------------
# Golden equivalence: ported figures == original hand-wired harnesses
# ----------------------------------------------------------------------
def _golden(name: str) -> dict:
    return json.loads((DATA_DIR / f"{name}_bench_golden.json").read_text())


class TestLegacyEquivalence:
    """The goldens were captured from the pre-scenario hand-wired code.

    fig06/fig13/fig17 were re-captured when the kernel gained
    content-keyed same-timestamp ordering (``Link.event_priority``, the
    sharded-engine determinism prerequisite): equal-time arrival
    arbitration changed, which shifts outcomes in synchronized-start
    scenarios.  fig03 survived the transition byte-identical.
    """

    def test_fig13_bench_row_for_row(self):
        from repro.experiments import fig13_qct_fct

        reset_workload_ids()
        result = fig13_qct_fct.run(scale="bench", seed=0)
        assert result.to_dict() == _golden("fig13")

    def test_fig17_bench_row_for_row(self):
        from repro.experiments import fig17_websearch

        reset_workload_ids()
        result = fig17_websearch.run(scale="bench", seed=0)
        assert result.to_dict() == _golden("fig17")

    def test_fig06_bench_row_for_row(self):
        from repro.experiments import fig06_anomalous

        reset_workload_ids()
        result = fig06_anomalous.run(scale="bench", seed=0)
        assert result.to_dict() == _golden("fig06")

    def test_fig03_bench_row_for_row(self):
        from repro.experiments import fig03_dt_behavior

        reset_workload_ids()
        result = fig03_dt_behavior.run(scale="bench", seed=0)
        assert result.to_dict() == _golden("fig03")


class TestHotPathEquivalence:
    """Goldens captured before the PR-3 hot-path optimizations.

    Together with :class:`TestLegacyEquivalence` these pin seven figures
    spanning every optimized layer: the packet-level switch pipeline and
    expulsion engine (fig11/fig12), the single-switch transport stack
    (fig03/fig06/fig13), and the ECMP leaf-spine fabric (fig17/fig19).  Any
    behaviour change in the simulation core shows up as a row diff here.
    (fig19 was re-captured with the content-keyed same-timestamp ordering
    -- see :class:`TestLegacyEquivalence`; fig11/fig12 survived it
    byte-identical.)
    """

    def test_fig11_bench_row_for_row(self):
        from repro.experiments import fig11_queue_evolution

        reset_workload_ids()
        result = fig11_queue_evolution.run(scale="bench", seed=0)
        assert result.to_dict() == _golden("fig11")

    def test_fig12_bench_row_for_row(self):
        from repro.experiments import fig12_burst_absorption

        reset_workload_ids()
        result = fig12_burst_absorption.run(scale="bench", seed=0)
        assert result.to_dict() == _golden("fig12")

    def test_fig19_bench_row_for_row(self):
        from repro.experiments import fig19_all_reduce

        reset_workload_ids()
        result = fig19_all_reduce.run(scale="bench", seed=0)
        assert result.to_dict() == _golden("fig19")
