"""Tests for the adaptive load-balancing subsystem (``repro.lb``).

Covers the policy mechanics against a stub switch (flowlet gap caching,
the ecmp passthrough contract), the attach-time binding on
:class:`SwitchNode` (explicit ``lb: ecmp`` must be byte-identical to omitting
the section), the determinism battery for the delegating policy
(in-process / serial vs ``--jobs 2`` / two fresh interpreters with
randomized hash seeds), the lb telemetry probes, and the headline
comparison: on the degraded fat-tree example, flowlet beats static ECMP
hashing on p99 FCT slowdown.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import RunSpec
from repro.lb import EcmpPassthrough, FlowletBalancer, make_load_balancer
from repro.metrics import percentile
from repro.scenario import LoadBalancerSpec, ScenarioSpec, run_scenario
from repro.scenario.runner import ScenarioRunner

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
SRC_DIR = Path(__file__).parent.parent / "src"
DEGRADED_EXAMPLE = EXAMPLES_DIR / "scenario_fattree_degraded.json"


# ----------------------------------------------------------------------
# Stub plumbing: a switch node that exposes exactly what policies read
# ----------------------------------------------------------------------
class _StubPort:
    def __init__(self) -> None:
        self.backlog = 0

    def backlog_bytes(self) -> int:
        return self.backlog


class _StubSwitch:
    def __init__(self, ports) -> None:
        self._ports = {p: _StubPort() for p in ports}

    def port(self, port_id):
        return self._ports[port_id]


class _StubNode:
    def __init__(self, ports, name="sw_stub") -> None:
        self.name = name
        self.switch = _StubSwitch(ports)
        self.sim = SimpleNamespace(now=0.0)


def _packet(flow_id=1, dst=9):
    return SimpleNamespace(flow_id=flow_id, dst=dst)


def _bound(policy, ports=(4, 5, 6)):
    policy.bind(_StubNode(ports))
    return policy


# ----------------------------------------------------------------------
# Policy mechanics
# ----------------------------------------------------------------------
class TestFlowlet:
    def test_within_gap_sticks_to_cached_port(self):
        lb = _bound(FlowletBalancer(gap=100e-6))
        first = lb.choose(_packet(), [4, 5, 6])
        lb.node.sim.now = 50e-6
        assert lb.choose(_packet(), [4, 5, 6]) == first
        assert lb.flowlets == 1
        assert lb.reroutes == 0

    def test_gap_expiry_repicks_least_backlogged(self):
        lb = _bound(FlowletBalancer(gap=100e-6))
        lb.node.switch.port(4).backlog = 5000
        lb.node.switch.port(6).backlog = 5000
        first = lb.choose(_packet(), [4, 5, 6])
        assert first == 5
        lb.node.sim.now = 250e-6  # > gap since the last packet
        lb.node.switch.port(5).backlog = 9000
        lb.node.switch.port(6).backlog = 0
        assert lb.choose(_packet(), [4, 5, 6]) == 6
        assert lb.flowlets == 2
        assert lb.reroutes == 1

    def test_failed_cached_port_rerouted_without_waiting_for_gap(self):
        lb = _bound(FlowletBalancer(gap=1.0))  # gap never expires in-test
        lb.node.switch.port(5).backlog = 1
        lb.node.switch.port(6).backlog = 1
        assert lb.choose(_packet(), [4, 5, 6]) == 4
        # Port 4's link fails: it leaves the candidate list.
        assert lb.choose(_packet(), [5, 6]) in (5, 6)
        assert lb.reroutes == 1

    def test_equal_backlog_ties_spread_across_candidates(self):
        # All-zero backlogs are the common case; a fixed tie-break would
        # herd every flowlet onto one uplink and *worsen* the balance.
        lb = _bound(FlowletBalancer(gap=1e-9))
        chosen = set()
        for flow_id in range(40):
            lb.node.sim.now += 1.0  # every packet starts a new flowlet
            chosen.add(lb.choose(_packet(flow_id=flow_id), [4, 5, 6]))
        assert chosen == {4, 5, 6}

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError, match="gap must be positive"):
            FlowletBalancer(gap=0.0)


class TestEcmpPassthrough:
    def test_never_chooses(self):
        lb = _bound(EcmpPassthrough())
        with pytest.raises(RuntimeError, match="never chooses"):
            lb.choose(_packet(), [4, 5])

    def test_registry_default_kwargs_applied(self):
        assert make_load_balancer("flowlet").gap == pytest.approx(100e-6)
        assert make_load_balancer("flowlet", gap=5e-6).gap == pytest.approx(5e-6)
        assert make_load_balancer("ecmp").passthrough is True


# ----------------------------------------------------------------------
# Spec wiring: canonical omission, shorthand, validation
# ----------------------------------------------------------------------
class TestLoadBalancerSpec:
    def test_default_section_is_omitted_from_canonical_document(self):
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        assert "lb" not in spec.to_dict()
        explicit = ScenarioSpec.from_dict({**spec.to_dict(), "lb": "ecmp"})
        assert "lb" not in explicit.to_dict()
        assert explicit.config_hash() == spec.config_hash()

    def test_non_default_section_round_trips(self):
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        spec.lb = LoadBalancerSpec("flowlet", {"gap": 2e-4})
        document = spec.to_dict()
        assert document["lb"] == {"name": "flowlet", "kwargs": {"gap": 2e-4}}
        rebuilt = ScenarioSpec.from_dict(document)
        assert rebuilt.lb == spec.lb
        assert rebuilt.config_hash() == spec.config_hash()
        assert rebuilt.config_hash() != ScenarioSpec.from_file(
            DEGRADED_EXAMPLE).config_hash()

    def test_unknown_policy_rejected_at_validate(self):
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        spec.lb = LoadBalancerSpec("vlb")
        with pytest.raises(KeyError, match="vlb"):
            ScenarioRunner().validate(spec)

    def test_bad_policy_kwargs_rejected_at_validate(self):
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        spec.lb = LoadBalancerSpec("flowlet", {"gap": -1.0})
        with pytest.raises(ValueError, match="gap must be positive"):
            ScenarioRunner().validate(spec)


# ----------------------------------------------------------------------
# Identity: explicit lb:ecmp is byte-for-byte the pre-LB data path
# ----------------------------------------------------------------------
def _short_spec(lb=None) -> ScenarioSpec:
    spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
    spec.duration = 0.001
    if lb is not None:
        spec.lb = LoadBalancerSpec(lb) if isinstance(lb, str) else lb
    return spec


def _run_to_json(lb=None) -> str:
    return json.dumps(run_scenario(_short_spec(lb)).to_dict(), sort_keys=True)


def test_explicit_ecmp_document_byte_identical_to_omitted():
    assert _run_to_json() == _run_to_json("ecmp")


def test_ecmp_passthrough_leaves_node_undelegated():
    result = run_scenario(_short_spec("ecmp"))
    for node in result.topology.network.switch_nodes.values():
        assert node.lb is None
        assert "deliver" not in node.__dict__  # no method swap bound


def test_delegating_policy_swaps_deliver_and_counts_decisions():
    result = run_scenario(_short_spec("flowlet"))
    nodes = result.topology.network.switch_nodes.values()
    assert all("deliver" in node.__dict__ for node in nodes)
    assert sum(node.lb.decisions for node in nodes) > 0
    assert sum(node.lb.flowlets for node in nodes) > 0


# ----------------------------------------------------------------------
# Determinism battery: the delegating policies across execution modes
# ----------------------------------------------------------------------
_LB_CHILD_SCRIPT = """
import json, sys
from repro.scenario import LoadBalancerSpec, ScenarioSpec, run_scenario

spec = ScenarioSpec.from_file(sys.argv[1])
spec.duration = 0.001
spec.lb = LoadBalancerSpec(sys.argv[2])
print(json.dumps(run_scenario(spec).to_dict(), sort_keys=True))
"""


@pytest.mark.parametrize("policy", ["flowlet"])
def test_lb_byte_identical_in_process(policy):
    assert _run_to_json(policy) == _run_to_json(policy)


@pytest.mark.parametrize("policy", ["flowlet"])
def test_lb_serial_vs_parallel_campaign_identical(policy):
    document = _short_spec(policy).to_dict()
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


@pytest.mark.parametrize("policy", ["flowlet"])
def test_lb_two_fresh_processes_byte_identical(policy):
    def run_child() -> str:
        proc = subprocess.run(
            [sys.executable, "-c", _LB_CHILD_SCRIPT,
             str(DEGRADED_EXAMPLE), policy],
            capture_output=True, text=True, timeout=240,
            env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "random"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run_child()
    assert first == run_child()
    assert first.strip() == _run_to_json(policy)


# ----------------------------------------------------------------------
# Telemetry integration: lb counters ride the sampling bus
# ----------------------------------------------------------------------
def test_lb_counters_surface_through_telemetry_bus():
    from repro.scenario.spec import TelemetrySpec

    spec = _short_spec("flowlet")
    spec.telemetry = TelemetrySpec(enabled=True, per_port=True)
    result = run_scenario(spec)
    series = result.telemetry.series
    decision_series = [name for name in series if name.endswith(".lb.decisions")]
    assert decision_series, sorted(series)
    assert any(series[name].values()[-1] > 0 for name in decision_series)
    assert any(".lb.port" in name and name.endswith(".packets")
               for name in series)
    # The ecmp passthrough registers no lb probes at all -- its telemetry
    # document stays byte-identical to a run with the section omitted.
    spec_ecmp = _short_spec("ecmp")
    spec_ecmp.telemetry = TelemetrySpec(enabled=True, per_port=True)
    result_ecmp = run_scenario(spec_ecmp)
    assert not any(".lb." in name for name in result_ecmp.telemetry.series)


# ----------------------------------------------------------------------
# The headline: adaptive policies beat static hashing under asymmetry
# ----------------------------------------------------------------------
def test_flowlet_beats_ecmp_p99_slowdown_on_degraded_fattree():
    """On the degraded fat-tree example (one failed agg<->core link, one
    half-rate edge<->agg uplink), congestion-aware uplink choice must beat
    static flow hashing at the tail: seeded full-length runs, p99 FCT
    slowdown strictly lower for flowlet than for ecmp."""
    p99 = {}
    for policy in ("ecmp", "flowlet"):
        spec = ScenarioSpec.from_file(DEGRADED_EXAMPLE)
        spec.lb = LoadBalancerSpec(policy)
        result = run_scenario(spec)
        p99[policy] = percentile(result.flow_stats.fct_slowdowns(), 99)
    assert p99["flowlet"] < p99["ecmp"], p99
