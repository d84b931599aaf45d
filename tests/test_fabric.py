"""Fabric-model tests: per-link rates, failures, degradation, weighted ECMP.

Covers the acceptance criteria of the fabric-model refactor:

* with a failed core link on a k=4 fat-tree, traced per-flow paths never
  traverse the failed link and coverage of the surviving path set stays
  complete;
* capacity-weighted ECMP splits flows across a 2:1 degraded uplink pair in
  ~2:1 ratio (the hash is deterministic, so the statistical check is too);
* link/host/topology constructors reject non-positive rates loudly;
* same-instant link deliveries batch into one event without reordering.
"""

import json
from collections import Counter

import pytest

from repro.core.registry import make_buffer_manager
from repro.netsim.link import Link, LinkSpec
from repro.netsim.network import Network
from repro.netsim.routing import EcmpRoutingTable
from repro.scenario.spec import FabricSpec, ScenarioSpec
from repro.scenario.runner import run_scenario
from repro.sim.engine import Simulator
from repro.switchsim.packet import Packet
from repro.topology.dumbbell import DumbbellTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.leaf_spine import LeafSpineTopology
from repro.topology.raw_switch import RawSwitchTopology
from repro.topology.single_switch import SingleSwitchTopology


def _dt():
    return make_buffer_manager("dt")


class _Sink:
    def __init__(self):
        self.order = []

    def deliver(self, packet):
        self.order.append(packet)


# ----------------------------------------------------------------------
# LinkSpec / Link validation and batching
# ----------------------------------------------------------------------
class TestLinkSpec:
    def test_defaults_inherit_rate(self):
        spec = LinkSpec(delay=1e-6)
        assert spec.rate_bps is None
        assert spec.effective_rate_bps is None

    def test_effective_rate_scales_with_degradation(self):
        spec = LinkSpec(rate_bps=10e9, delay=1e-6, degraded_factor=0.25)
        assert spec.effective_rate_bps == pytest.approx(2.5e9)

    def test_degraded_composes(self):
        spec = LinkSpec(rate_bps=10e9).degraded(0.5).degraded(0.5)
        assert spec.effective_rate_bps == pytest.approx(2.5e9)

    @pytest.mark.parametrize("kwargs", [
        {"rate_bps": 0.0},
        {"rate_bps": -1.0},
        {"delay": -1e-9},
        {"degraded_factor": 0.0},
        {"degraded_factor": 1.5},
    ])
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            LinkSpec(**kwargs)


class TestLink:
    def test_rejects_non_positive_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="rate must be positive"):
            Link(sim, _Sink(), delay=0.0, rate_bps=0.0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="cannot be negative"):
            Link(Simulator(), _Sink(), delay=-1e-9)

    def test_same_instant_transmits_share_one_event(self):
        sim = Simulator()
        sink = _Sink()
        link = Link(sim, sink, delay=1e-6)
        packets = [Packet(size_bytes=100 + i) for i in range(4)]
        for packet in packets:
            link.transmit(packet)
        assert sim.pending_events == 1  # one event for four packets
        sim.run()
        assert sink.order == packets  # FIFO preserved

    def test_distinct_instants_deliver_at_their_times(self):
        sim = Simulator()
        sink = _Sink()
        link = Link(sim, sink, delay=1e-6)
        arrivals = []
        sink.deliver = lambda p: arrivals.append(sim.now)
        link.transmit(Packet(size_bytes=1))
        sim.run(until=0.5e-6)
        link.transmit(Packet(size_bytes=1))
        sim.run()
        assert arrivals == [pytest.approx(1e-6), pytest.approx(1.5e-6)]

    def test_mixed_batches_keep_order_and_counts(self):
        sim = Simulator()
        sink = _Sink()
        link = Link(sim, sink, delay=1e-6)
        first = [Packet(size_bytes=1) for _ in range(3)]
        for packet in first:
            link.transmit(packet)
        sim.run(until=0.4e-6)
        second = [Packet(size_bytes=1) for _ in range(2)]
        for packet in second:
            link.transmit(packet)
        assert sim.pending_events == 2
        sim.run()
        assert sink.order == first + second

    def test_failed_link_blackholes_and_repairs(self):
        sim = Simulator()
        sink = _Sink()
        link = Link(sim, sink, delay=1e-6)
        link.transmit(Packet(size_bytes=1))
        link.set_failed()
        link.transmit(Packet(size_bytes=1))
        sim.run()
        assert len(sink.order) == 1
        assert link.dropped_packets == 1
        link.set_failed(False)
        link.transmit(Packet(size_bytes=1))
        sim.run()
        assert len(sink.order) == 2


# ----------------------------------------------------------------------
# Weighted / failure-aware ECMP member selection
# ----------------------------------------------------------------------
class TestWeightedEcmp:
    def _table(self, uplinks=(4, 5)):
        table = EcmpRoutingTable()
        table.add_uplinks(uplinks)
        return table

    def test_equal_weights_match_legacy_hash(self):
        plain = self._table()
        weighted = self._table()
        for port in (4, 5):
            weighted.set_uplink_weight(port, 10e9)
        picks = [(plain.egress_for(0, 99, fid), weighted.egress_for(0, 99, fid))
                 for fid in range(2000)]
        assert all(a == b for a, b in picks)

    def test_two_to_one_split_statistical(self):
        table = self._table()
        table.set_uplink_weight(4, 10e9)
        table.set_uplink_weight(5, 5e9)
        counts = Counter(table.egress_for(0, 99, fid) for fid in range(30000))
        fraction = counts[4] / (counts[4] + counts[5])
        assert 0.63 < fraction < 0.70  # ~2/3 with statistical tolerance

    def test_disabled_uplink_never_selected(self):
        table = self._table()
        table.disable_uplink(4)
        assert table.candidate_ports(99) == [5]
        assert all(table.egress_for(0, 99, fid) == 5 for fid in range(500))

    def test_exclusion_is_per_destination(self):
        table = self._table()
        table.exclude_uplink_for(4, dst_host=7)
        assert table.candidate_ports(7) == [5]
        assert set(table.candidate_ports(8)) == {4, 5}
        assert all(table.egress_for(0, 7, fid) == 5 for fid in range(500))
        assert any(table.egress_for(0, 8, fid) == 4 for fid in range(500))

    def test_all_members_pruned_raises(self):
        table = self._table()
        table.disable_uplink(4)
        table.exclude_uplink_for(5, dst_host=7)
        with pytest.raises(LookupError, match="no surviving uplink"):
            table.candidate_ports(7)

    def test_weight_requires_registered_uplink(self):
        table = self._table()
        with pytest.raises(ValueError, match="not a registered uplink"):
            table.set_uplink_weight(9, 1.0)
        with pytest.raises(ValueError, match="must be positive"):
            table.set_uplink_weight(4, 0.0)


# ----------------------------------------------------------------------
# Input validation (satellite): hosts, networks, topologies
# ----------------------------------------------------------------------
class TestRateValidation:
    def test_network_add_host_rejects_non_positive_rate(self):
        net = Network(Simulator(), bottleneck_bps=10e9, base_rtt=40e-6)
        with pytest.raises(ValueError, match="must be positive"):
            net.add_host(0, nic_rate_bps=0.0)
        with pytest.raises(ValueError, match="must be positive"):
            net.add_host(1, nic_rate_bps=-10e9)

    def test_network_rejects_non_positive_bottleneck(self):
        with pytest.raises(ValueError, match="bottleneck_bps"):
            Network(Simulator(), bottleneck_bps=0.0, base_rtt=40e-6)

    def test_connect_rejects_delay_and_spec_together(self):
        net = Network(Simulator(), bottleneck_bps=10e9, base_rtt=40e-6)
        host = net.add_host(0, nic_rate_bps=10e9)
        topo = SingleSwitchTopology(2, _dt)
        with pytest.raises(ValueError, match="not both"):
            net.connect_host_to_switch(host, topo.switch_node, 0, 1e-6,
                                       spec=LinkSpec(rate_bps=10e9))

    @pytest.mark.parametrize("build", [
        lambda: SingleSwitchTopology(4, _dt, link_rate_bps=0.0),
        lambda: LeafSpineTopology(_dt, link_rate_bps=-1.0),
        lambda: DumbbellTopology(2, _dt, edge_rate_bps=0.0),
        lambda: FatTreeTopology(_dt, link_rate_bps=0.0),
        lambda: RawSwitchTopology(_dt, port_rate_bps=0.0),
    ])
    def test_topologies_reject_non_positive_rates(self, build):
        with pytest.raises(ValueError):
            build()

    def test_unknown_tier_name_rejected(self):
        with pytest.raises(ValueError, match="unknown link tier"):
            LeafSpineTopology(_dt, tier_rates={"core": 10e9})

    def test_non_positive_tier_rate_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            FatTreeTopology(_dt, tier_rates={"core": 0.0})

    def test_dumbbell_rejects_failures(self):
        with pytest.raises(ValueError, match="single-path"):
            DumbbellTopology(2, _dt, failures=[["left", "right"]])

    def test_raw_switch_rejects_failures(self):
        with pytest.raises(ValueError, match="no links to fail"):
            RawSwitchTopology(_dt, failures=[["a", "b"]])

    def test_single_switch_rejects_host_link_failure(self):
        with pytest.raises(ValueError, match="partition"):
            SingleSwitchTopology(4, _dt, failures=[["h0", "s0"]])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="no link between"):
            FatTreeTopology(_dt, k=4, failures=[["agg0_0", "core9"]])

    def test_degraded_factor_bounds(self):
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            LeafSpineTopology(_dt, degraded=[["leaf0", "spine1", 1.5]])


# ----------------------------------------------------------------------
# Per-link rates propagate into serializers
# ----------------------------------------------------------------------
class TestRatePropagation:
    def test_tier_rates_retune_ports_and_nics(self):
        topo = LeafSpineTopology(
            _dt, num_leaves=2, num_spines=2, hosts_per_leaf=2,
            link_rate_bps=10e9, tier_rates={"spine": 40e9, "host": 10e9})
        leaf = topo.leaves[0]
        # Host-facing ports at 10G, spine-facing uplinks at 40G.
        assert leaf.switch.ports[0].rate_bps == pytest.approx(10e9)
        assert leaf.switch.ports[2].rate_bps == pytest.approx(40e9)
        assert topo.network.hosts[0].nic_rate_bps == pytest.approx(10e9)

    def test_dumbbell_trunk_serializes_at_bottleneck_rate(self):
        topo = DumbbellTopology(2, _dt, edge_rate_bps=10e9,
                                bottleneck_rate_bps=2.5e9)
        assert topo.left.switch.ports[0].rate_bps == pytest.approx(2.5e9)
        assert topo.right.switch.ports[0].rate_bps == pytest.approx(2.5e9)
        # Host ports keep the edge rate.
        assert topo.left.switch.ports[1].rate_bps == pytest.approx(10e9)

    def test_degraded_host_link_slows_nic_and_port(self):
        topo = SingleSwitchTopology(4, _dt, link_rate_bps=10e9,
                                    degraded=[["h0", "s0", 0.5]])
        assert topo.network.hosts[0].nic_rate_bps == pytest.approx(5e9)
        assert topo.switch.ports[0].rate_bps == pytest.approx(5e9)
        assert topo.network.hosts[1].nic_rate_bps == pytest.approx(10e9)

    def test_raw_switch_degraded_port(self):
        topo = RawSwitchTopology(_dt, num_ports=2, port_rate_bps=10e9,
                                 degraded=[[1, 0.25]])
        assert topo.switch.ports[0].rate_bps == pytest.approx(10e9)
        assert topo.switch.ports[1].rate_bps == pytest.approx(2.5e9)

    def test_abm_port_rate_cache_refreshes(self):
        topo = LeafSpineTopology(
            lambda: make_buffer_manager("abm"), num_leaves=2, num_spines=2,
            hosts_per_leaf=2, degraded=[["leaf0", "spine1", 0.5]])
        leaf = topo.leaves[0]
        manager = leaf.switch.manager
        # Port 3 (uplink to spine1) halved; the attach-time cache followed.
        assert leaf.switch.ports[3].rate_bps == pytest.approx(5e9)
        assert manager._port_rate_bytes[3] == pytest.approx(5e9 / 8.0)


# ----------------------------------------------------------------------
# Degraded uplink pair: capacity-weighted flow spread
# ----------------------------------------------------------------------
class TestDegradedUplinkSplit:
    def test_leaf_spine_two_to_one_split(self):
        topo = LeafSpineTopology(
            _dt, num_leaves=2, num_spines=2, hosts_per_leaf=4,
            degraded=[["leaf0", "spine1", 0.5]])
        leaf0 = topo.leaves[0]
        counts = Counter(
            leaf0.routing.egress_for(src, dst, fid)
            for src in topo.hosts_of_leaf(0)
            for dst in topo.hosts_of_leaf(1)
            for fid in range(2000)
        )
        healthy, degraded = counts[4], counts[5]
        fraction = healthy / (healthy + degraded)
        assert 0.63 < fraction < 0.70  # ~2:1 within statistical tolerance

    def test_fat_tree_degraded_agg_uplink_split(self):
        topo = FatTreeTopology(_dt, k=4,
                               degraded=[["agg0_0", "core1", 0.5]])
        agg = topo.aggs[0]
        # agg0_0 uplinks: port 2 -> core0, port 3 -> core1 (degraded).
        counts = Counter(
            agg.routing.egress_for(src, dst, fid)
            for src in topo.hosts_of_pod(0)
            for dst in topo.hosts_of_pod(1)
            for fid in range(1000)
        )
        fraction = counts[2] / (counts[2] + counts[3])
        assert 0.63 < fraction < 0.70


# ----------------------------------------------------------------------
# Failed links: pruned routing, complete surviving coverage, live traffic
# ----------------------------------------------------------------------
def _crosses(path, a, b):
    hops = list(zip(path, path[1:], strict=False))
    return (a, b) in hops or (b, a) in hops


class TestFailedCoreLink:
    @pytest.fixture(scope="class")
    def topo(self):
        return FatTreeTopology(_dt, k=4, failures=[["agg0_0", "core1"]])

    def test_enumerated_paths_avoid_failed_link(self, topo):
        for src in topo.hosts_of_pod(0):
            for dst in topo.hosts_of_pod(2):
                for path in topo.paths_between(src, dst):
                    assert not _crosses(path, "agg0_0", "core1")

    def test_traced_paths_avoid_failed_link_and_cover_survivors(self, topo):
        for src in topo.hosts_of_pod(0)[:2]:
            for dst in topo.hosts_of_pod(2)[:2]:
                enumerated = set(map(tuple, topo.paths_between(src, dst)))
                traced = {topo.path_of_flow(src, dst, fid)
                          for fid in range(400)}
                assert traced <= enumerated
                # Surviving-path coverage stays complete: every equal-cost
                # survivor still carries flows.
                assert traced == enumerated

    def test_surviving_path_count(self, topo):
        # k=4 inter-pod: 4 paths per pair; pod-0 sources lose the 1 path
        # through agg0_0 -> core1 when they hash to agg0_0... the failed
        # link removes exactly the paths crossing it (4 -> 3 for pod-0
        # pairs routed via agg0_0's plane).
        src = topo.hosts_of_pod(0)[0]
        dst = topo.hosts_of_pod(2)[0]
        assert len(topo.paths_between(src, dst)) == 3

    def test_reverse_direction_also_pruned(self, topo):
        # Traffic towards pod 0 must not reach core1 either (core1 can only
        # reach pod 0 through the failed link).
        for src in topo.hosts_of_pod(2)[:2]:
            for dst in topo.hosts_of_pod(0)[:2]:
                for fid in range(400):
                    path = topo.path_of_flow(src, dst, fid)
                    assert "core1" not in path
                    assert not _crosses(path, "core1", "agg0_0")

    def test_traffic_completes_through_failed_fabric(self):
        spec = ScenarioSpec.from_dict({
            "name": "failed-core-smoke",
            "scheme": {"name": "dt"},
            "topology": {"kind": "fat_tree",
                         "params": {"k": 4, "hosts_per_edge": 1,
                                    "buffer_bytes_per_port": 65536,
                                    "ecn_threshold_bytes": 30000}},
            "fabric": {"failures": [["agg0_0", "core1"]]},
            "workloads": [
                {"kind": "permutation",
                 "params": {"flow_size_bytes": 40000, "pattern": "shift"}}
            ],
            "duration": 0.002,
        })
        result = run_scenario(spec)
        stats = result.flow_stats
        assert stats.completion_fraction() == 1.0
        # And the failed link genuinely carried nothing.
        network = result.topology.network
        assert network.link_between("agg0_0", "core1").packets_carried == 0
        assert network.link_between("core1", "agg0_0").packets_carried == 0

    def test_paths_between_refreshes_after_post_construction_failure(self):
        topo = FatTreeTopology(_dt, k=4)
        src = topo.hosts_of_pod(0)[0]
        dst = topo.hosts_of_pod(2)[0]
        assert len(topo.paths_between(src, dst)) == 4  # warms the memo
        topo.network.fail_link("agg0_0", "core1")
        survivors = topo.paths_between(src, dst)
        assert len(survivors) == 3
        assert not any(_crosses(p, "agg0_0", "core1") for p in survivors)

    def test_partitioning_failure_set_rejected(self):
        # Killing both uplinks of edge0_0 cuts its hosts off entirely.
        with pytest.raises(ValueError, match="disconnect"):
            FatTreeTopology(_dt, k=4, failures=[["edge0_0", "agg0_0"],
                                                ["edge0_0", "agg0_1"]])

    def test_leaf_spine_failure_prunes_both_directions(self):
        topo = LeafSpineTopology(_dt, num_leaves=2, num_spines=2,
                                 hosts_per_leaf=2,
                                 failures=[["leaf0", "spine1"]])
        # leaf0's uplink to spine1 is gone.
        assert topo.leaves[0].routing.candidate_ports(3) == [2]
        # leaf1 must not pick spine1 for leaf0-bound traffic either.
        assert topo.leaves[1].routing.candidate_ports(0) == [2]
        # ...but still may use spine1 for reachable destinations? leaf1's
        # only other-leaf destinations sit behind leaf0, so spine1 is fully
        # excluded for them; local hosts keep their direct routes.
        assert topo.leaves[1].routing.candidate_ports(2) == [0]


# ----------------------------------------------------------------------
# Scenario-layer fabric section
# ----------------------------------------------------------------------
class TestFabricSpec:
    def test_default_fabric_omitted_from_document(self):
        spec = ScenarioSpec.from_dict({
            "name": "plain", "scheme": "dt",
            "topology": {"kind": "single_switch", "params": {"num_hosts": 4}},
        })
        assert spec.fabric.is_default()
        assert "fabric" not in spec.to_dict()

    def test_fabric_round_trips_and_changes_hash(self):
        base = {
            "name": "fab", "scheme": "dt",
            "topology": {"kind": "fat_tree", "params": {"k": 4}},
        }
        plain = ScenarioSpec.from_dict(base)
        fabric_doc = dict(base)
        fabric_doc["fabric"] = {"failures": [["agg0_0", "core1"]],
                                "tier_rates": {"core": 40e9}}
        spec = ScenarioSpec.from_dict(fabric_doc)
        assert spec.config_hash() != plain.config_hash()
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.config_hash() == spec.config_hash()
        assert rebuilt.fabric.failures == [["agg0_0", "core1"]]

    def test_invalid_fabric_entries_rejected(self):
        with pytest.raises(ValueError, match="endpoint"):
            FabricSpec(failures=[["only-one"]]).validate()
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            FabricSpec(degraded=[["a", "b", 2.0]]).validate()
        with pytest.raises(ValueError, match="positive"):
            FabricSpec(tier_rates={"core": -1.0}).validate()

    def test_fabric_and_topology_param_collision_rejected(self):
        spec = ScenarioSpec.from_dict({
            "name": "clash", "scheme": "dt",
            "topology": {"kind": "fat_tree",
                         "params": {"k": 4,
                                    "failures": [["agg0_0", "core1"]]}},
            "fabric": {"failures": [["agg0_0", "core0"]]},
            "duration": 0.001,
        })
        with pytest.raises(ValueError, match="declare them once"):
            run_scenario(spec)
        # validate sees the same collision (the runner and CLI share the
        # merge through ScenarioSpec.resolved_topology_params).
        from repro.scenario.runner import ScenarioRunner
        with pytest.raises(ValueError, match="declare them once"):
            ScenarioRunner().validate(spec)
