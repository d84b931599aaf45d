"""Tests for the mid-run fabric event timeline (``fabric.events``).

Covers spec-time validation (normalization, shorthand, the failure state
machine), static endpoint resolution through ``python -m repro.scenario
validate``, the network-level repair path (``Link.set_failed(False)``
restore + ECMP member re-inclusion under live traffic), and the end-to-end
fail -> repair scenario: a finite recovery time in the result document and a
frozen packet counter across the failure window.
"""

import json
from pathlib import Path

import pytest

from repro.scenario import LoadBalancerSpec, ScenarioSpec, run_scenario
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import FabricSpec, normalize_fabric_event
from repro.scenario.timeline import PROBE_SLOTS, RECOVERY_THRESHOLD
from repro.workloads import reset_workload_ids

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
DEGRADED_EXAMPLE = EXAMPLES_DIR / "scenario_fattree_degraded.json"


# ----------------------------------------------------------------------
# Event normalization: canonical + shorthand in, canonical out
# ----------------------------------------------------------------------
class TestNormalizeFabricEvent:
    def test_canonical_shape_passes_through(self):
        event = normalize_fabric_event(
            {"t": 0.001, "action": "fail", "link": ["agg0_0", "core1"]})
        assert event == {"t": 0.001, "action": "fail",
                         "link": ["agg0_0", "core1"]}

    def test_shorthand_is_normalized(self):
        assert normalize_fabric_event(
            {"t": 0.002, "repair": ("agg0_0", "core1")}) == {
            "t": 0.002, "action": "repair", "link": ["agg0_0", "core1"]}

    def test_degrade_requires_factor(self):
        event = normalize_fabric_event(
            {"t": 0.0, "degrade": ["edge0_0", "agg0_0"], "factor": 0.5})
        assert event["factor"] == 0.5
        with pytest.raises(ValueError, match="need a 'factor'"):
            normalize_fabric_event({"t": 0.0, "degrade": ["a", "b"]})

    def test_factor_rejected_on_non_degrade(self):
        with pytest.raises(ValueError, match="only applies to degrade"):
            normalize_fabric_event(
                {"t": 0.0, "fail": ["a", "b"], "factor": 0.5})

    def test_factor_range_enforced(self):
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            normalize_fabric_event(
                {"t": 0.0, "degrade": ["a", "b"], "factor": 1.5})

    def test_two_actions_rejected(self):
        with pytest.raises(ValueError, match="two actions"):
            normalize_fabric_event(
                {"t": 0.0, "fail": ["a", "b"], "repair": ["a", "b"]})

    def test_missing_action_and_missing_t_rejected(self):
        with pytest.raises(ValueError, match="need an action"):
            normalize_fabric_event({"t": 0.0, "link": ["a", "b"]})
        with pytest.raises(ValueError, match="no timestamp"):
            normalize_fabric_event({"fail": ["a", "b"]})

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_fabric_event({"t": -1e-6, "fail": ["a", "b"]})

    def test_malformed_link_rejected(self):
        with pytest.raises(ValueError, match="endpoint pair"):
            normalize_fabric_event({"t": 0.0, "fail": ["only_one"]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fabric.events keys"):
            normalize_fabric_event(
                {"t": 0.0, "fail": ["a", "b"], "reason": "typo"})


# ----------------------------------------------------------------------
# The timeline state machine at spec build time
# ----------------------------------------------------------------------
class TestFabricSpecEventValidation:
    def test_unsorted_timeline_rejected(self):
        fabric = FabricSpec(events=[
            {"t": 0.002, "fail": ["a", "b"]},
            {"t": 0.001, "repair": ["a", "b"]},
        ])
        with pytest.raises(ValueError, match="sorted by timestamp"):
            fabric.validate()

    def test_double_fail_rejected(self):
        fabric = FabricSpec(events=[
            {"t": 0.001, "fail": ["a", "b"]},
            {"t": 0.002, "fail": ["b", "a"]},  # same pair, either order
        ])
        with pytest.raises(ValueError, match="already failed"):
            fabric.validate()

    def test_repair_of_never_failed_link_rejected(self):
        fabric = FabricSpec(events=[{"t": 0.001, "repair": ["a", "b"]}])
        with pytest.raises(ValueError, match="not failed at that point"):
            fabric.validate()

    def test_initial_failures_seed_the_state_machine(self):
        fabric = FabricSpec(failures=[["a", "b"]],
                            events=[{"t": 0.001, "repair": ["b", "a"]}])
        fabric.validate()  # repair of a t=0 failure is legal
        assert fabric.events == [
            {"t": 0.001, "action": "repair", "link": ["b", "a"]}]

    def test_fail_repair_fail_cycle_is_legal(self):
        fabric = FabricSpec(events=[
            {"t": 0.001, "fail": ["a", "b"]},
            {"t": 0.002, "repair": ["a", "b"]},
            {"t": 0.003, "fail": ["a", "b"]},
        ])
        fabric.validate()

    def test_default_omission_keeps_hashes(self):
        # An empty timeline must not perturb any pre-timeline document.
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        assert "events" not in spec.to_dict()["fabric"]
        with_events = ScenarioSpec.from_dict(spec.to_dict())
        with_events.fabric.events = [{"t": 0.001, "fail": ["agg0_0", "core2"]}]
        assert with_events.config_hash() != spec.config_hash()
        assert "events" in with_events.to_dict()["fabric"]


# ----------------------------------------------------------------------
# Static endpoint resolution (CLI validate path) and level gating
# ----------------------------------------------------------------------
def _events_doc(events) -> dict:
    doc = ScenarioSpec.from_file(DEGRADED_EXAMPLE).to_dict()
    doc["fabric"].pop("failures", None)
    doc["fabric"].pop("degraded", None)
    doc["fabric"]["events"] = events
    return doc


class TestEventResolution:
    def test_unknown_endpoint_fails_cli_validation(self, tmp_path):
        from repro.scenario.experiment import validate_spec_file

        path = tmp_path / "bad_events.json"
        path.write_text(json.dumps(_events_doc(
            [{"t": 0.001, "fail": ["agg9_9", "core1"]}])))
        with pytest.raises(ValueError, match="agg9_9"):
            validate_spec_file(str(path))

    def test_failing_host_link_rejected(self, tmp_path):
        from repro.scenario.experiment import validate_spec_file

        path = tmp_path / "host_fail.json"
        path.write_text(json.dumps(_events_doc(
            [{"t": 0.001, "fail": ["h0", "edge0_0"]}])))
        with pytest.raises(ValueError, match="partition the host"):
            validate_spec_file(str(path))

    def test_events_need_network_level_topology(self):
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        spec.topology.kind = "raw_switch"
        spec.fabric = FabricSpec(events=[{"t": 0.001, "fail": ["a", "b"]}])
        with pytest.raises(ValueError, match="network-level topology"):
            ScenarioRunner().validate(spec)

    def test_lb_needs_network_level_topology(self):
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        spec.topology.kind = "raw_switch"
        spec.fabric = FabricSpec()
        spec.lb = LoadBalancerSpec("flowlet")
        with pytest.raises(ValueError, match="network-level topology"):
            ScenarioRunner().validate(spec)


# ----------------------------------------------------------------------
# Mid-run repair at the network layer, under live traffic
# ----------------------------------------------------------------------
def _fail_repair_spec(lb=None, t_fail=0.0008, t_repair=0.0024) -> ScenarioSpec:
    doc = _events_doc([
        {"t": t_fail, "fail": ["agg0_0", "core1"]},
        {"t": t_repair, "repair": ["agg0_0", "core1"]},
    ])
    spec = ScenarioSpec.from_dict(doc)
    if lb is not None:
        spec.lb = LoadBalancerSpec(lb)
    return spec


def _run(spec) -> object:
    reset_workload_ids()
    return run_scenario(spec)


class TestMidRunRepair:
    def test_failed_pair_carries_zero_packets_during_window(self):
        result = _run(_fail_repair_spec())
        applied = result.timeline.applied
        by_action = {record["action"]: record for record in applied}
        assert by_action["fail"]["packets_carried_at_fail"] == \
            by_action["repair"]["packets_carried_at_repair"]

    def test_repaired_members_carry_traffic_again(self):
        result = _run(_fail_repair_spec())
        network = result.topology.network
        forward, backward = network.link_pair("agg0_0", "core1")
        carried_at_repair = result.timeline.applied[-1][
            "packets_carried_at_repair"]
        total = forward.link.packets_carried + backward.link.packets_carried
        # The pair re-entered the ECMP candidate sets and moved packets
        # after its repair; nothing was blackholed post-repair either.
        assert total > carried_at_repair
        assert network.failed_links == []
        assert forward.link.failed is False and backward.link.failed is False

    def test_exclusions_cleared_and_uplinks_reenabled_after_repair(self):
        result = _run(_fail_repair_spec())
        for node in result.topology.network.switch_nodes.values():
            table = node.routing
            assert not table._disabled
            assert not table._excluded

    def test_recovery_time_is_finite_and_reported(self):
        result = _run(_fail_repair_spec())
        document = result.to_dict()
        assert "fabric_events" in document
        section = document["fabric_events"]
        assert section["threshold"] == RECOVERY_THRESHOLD
        horizon = result.spec.duration * result.spec.run_slack
        assert section["window"] == pytest.approx(horizon / PROBE_SLOTS)
        (watch,) = section["recovery"]
        assert watch["recovery_time"] is not None
        assert 0 < watch["recovery_time"] < horizon
        assert watch["recovered_at"] == pytest.approx(
            watch["t_fail"] + watch["recovery_time"])
        row = result.summary_row()
        assert row["recovery_ms"] == pytest.approx(
            watch["recovery_time"] * 1e3)

    def test_recovery_probes_do_not_perturb_event_counts(self):
        # Two timelines that differ only in probe activity (a watch exists
        # only after a fail) must report event totals that reflect traffic
        # plus the applied events -- the read-only probes are subtracted.
        result = _run(_fail_repair_spec())
        assert result.timeline.ticks > 0
        assert result.events_executed > 0

    def test_repair_without_failure_raises_mid_run(self):
        result = _run(ScenarioSpec.from_dict(_events_doc([])))
        network = result.topology.network
        with pytest.raises(ValueError, match="repair only follows fail"):
            network.repair_link("agg0_0", "core1")

    def test_works_under_every_lb_policy(self):
        # Rerouting on fail + re-inclusion on repair is policy-independent:
        # flowlet tables drop dead cached ports, spray/drill see the
        # refreshed candidate list, and every run stays loss-consistent.
        for policy in ("flowlet", "drill", "spray"):
            result = _run(_fail_repair_spec(lb=policy))
            by_action = {r["action"]: r for r in result.timeline.applied}
            assert by_action["fail"]["packets_carried_at_fail"] == \
                by_action["repair"]["packets_carried_at_repair"], policy
            (recovery,) = result.timeline.recovery_times()
            assert recovery is not None, policy


# ----------------------------------------------------------------------
# A packet with no surviving next hop is a counted drop, not a crash
# ----------------------------------------------------------------------
def _stranding_spec(seed: int) -> ScenarioSpec:
    """The benchmark's tiny ``fabric_features`` document, timeline moved.

    Failing ``agg1_0<->core0`` mid-run on top of the static
    ``agg0_0<->core1`` failure leaves packets already queued towards pod 0
    at a switch whose every uplink for that destination is gone.
    """
    import importlib.util

    path = Path(__file__).parent.parent / "bench" / "specs.py"
    module_spec = importlib.util.spec_from_file_location("bench_specs", path)
    specs = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(specs)
    document = specs.fabric_features(seed, "tiny")["features"]
    for event in document["fabric"]["events"]:
        action = "fail" if "fail" in event else "repair"
        event[action] = ["agg1_0", "core0"]
    return ScenarioSpec.from_dict(document)


@pytest.mark.parametrize("seed, strands", [(1, False), (2, True), (3, True),
                                           (4, True), (5, False)])
def test_stranded_packets_are_counted_and_retransmitted(seed, strands):
    spec = _stranding_spec(seed)
    ScenarioRunner().validate(spec)
    reset_workload_ids()
    result = run_scenario(spec)  # raised LookupError on seeds 2-4
    nodes = result.topology.network.switch_nodes.values()
    no_route = sum(node.no_route for node in nodes)
    assert (no_route > 0) == strands
    # The transports retransmitted through the re-pruned tables.
    assert result.to_dict()["summary"]["completion"] == 1.0


# ----------------------------------------------------------------------
# Determinism: the timeline document is part of the result contract
# ----------------------------------------------------------------------
def test_fail_repair_run_byte_identical_in_process():
    def run_to_json() -> str:
        reset_workload_ids()
        return json.dumps(run_scenario(_fail_repair_spec()).to_dict(),
                          sort_keys=True)

    assert run_to_json() == run_to_json()


def test_campaign_axis_sweeps_fabric_events():
    # The campaign example's axes drive events through set_by_path: the
    # no-events cell omits the section, the fail+repair cell reports it.
    from repro.campaign.spec import SweepSpec

    with open(EXAMPLES_DIR / "campaign_lb_recovery.json") as handle:
        sweep = SweepSpec.from_dict(json.load(handle))
    runs = sweep.expand()
    assert len(runs) == 32  # 2 seeds x 2 schemes x 4 lbs x 2 timelines
    documents = [run.params["scenario"] for run in runs]
    with_events = [doc for doc in documents if doc["fabric"]["events"]]
    assert len(with_events) == len(documents) // 2
    lbs = {json.dumps(doc.get("lb"), sort_keys=True) for doc in documents}
    assert len(lbs) == 4  # one document shape per swept lb.name value
