"""Tests for the packet-level network simulator (hosts, links, transports)."""

import pytest

from repro.core import CompleteSharing, DynamicThreshold, Occamy
from repro.netsim import EcmpRoutingTable, TransportConfig, switch_salt
from repro.netsim.transport import make_transport
from repro.netsim.transport.base import ReceiverState
from repro.sim.units import GBPS, KB
from repro.switchsim import Packet
from repro.topology import DumbbellTopology, LeafSpineTopology, SingleSwitchTopology
from repro.workloads import FlowSpec, number_flows


class TestRouting:
    def test_direct_route_preferred(self):
        table = EcmpRoutingTable()
        table.add_host_route(5, 2)
        table.add_uplinks([3, 4])
        assert table.route(Packet(size_bytes=100, dst=5)) == 2

    def test_ecmp_spreads_and_is_flow_consistent(self):
        table = EcmpRoutingTable()
        table.add_uplinks([0, 1, 2, 3])
        ports = set()
        for flow in range(40):
            p1 = table.route(Packet(size_bytes=100, src=1, dst=2, flow_id=flow))
            p2 = table.route(Packet(size_bytes=100, src=1, dst=2, flow_id=flow))
            assert p1 == p2  # same flow -> same path
            ports.add(p1)
        assert len(ports) > 1  # different flows spread over uplinks

    def test_no_route_raises(self):
        with pytest.raises(LookupError):
            EcmpRoutingTable().route(Packet(size_bytes=100, dst=9))

    def test_salt_decorrelates_tables(self):
        # Two switches with the same uplink set must not make identical
        # picks for every flow once salted, or multi-stage ECMP polarizes.
        plain = EcmpRoutingTable()
        salted = EcmpRoutingTable(salt=switch_salt("agg0_0"))
        for table in (plain, salted):
            table.add_uplinks([0, 1, 2, 3])
        flows = range(64)
        assert [plain.egress_for(1, 2, f) for f in flows] != \
               [salted.egress_for(1, 2, f) for f in flows]

    def test_salt_is_deterministic_and_set_salt_invalidates_memo(self):
        assert switch_salt("core0") == switch_salt("core0")
        assert switch_salt("core0") != switch_salt("core1")
        table = EcmpRoutingTable()
        table.add_uplinks([0, 1, 2, 3])
        before = [table.egress_for(1, 2, f) for f in range(64)]
        table.set_salt(switch_salt("core0"))
        after = [table.egress_for(1, 2, f) for f in range(64)]
        assert before != after  # memoized picks were recomputed


class TestTransportFactory:
    def test_known_transports(self):
        for name in ("dctcp", "reno", "cubic"):
            assert make_transport(name).name == name

    def test_unknown_transport(self):
        with pytest.raises(KeyError):
            make_transport("bbr")


class TestSingleFlowDelivery:
    def _run_flow(self, size_bytes, transport="dctcp", manager=None):
        topo = SingleSwitchTopology(
            num_hosts=2,
            manager_factory=lambda: manager or CompleteSharing(),
            link_rate_bps=10 * GBPS,
            ecn_threshold_bytes=30 * KB,
        )
        spec = FlowSpec(src=0, dst=1, size_bytes=size_bytes, start_time=0.0,
                        flow_id=1)
        topo.network.inject_flows([spec], transport=transport)
        topo.network.run(until=1.0)
        return topo, spec

    def test_small_flow_completes(self):
        topo, spec = self._run_flow(15_000)
        stats = topo.network.flow_stats
        assert stats.completion_fraction() == 1.0
        assert stats.flows[spec.flow_id].fct > 0

    def test_large_flow_completes_with_all_transports(self):
        for transport in ("dctcp", "reno", "cubic"):
            topo, spec = self._run_flow(300_000, transport=transport)
            assert topo.network.flow_stats.completion_fraction() == 1.0, transport

    def test_fct_close_to_ideal_on_empty_network(self):
        topo, spec = self._run_flow(200_000)
        stats = topo.network.flow_stats
        slowdowns = stats.fct_slowdowns()
        # An uncontended flow should finish within a small factor of ideal
        # (window ramp-up costs a few RTTs).
        assert slowdowns[0] < 3.0

    def test_flow_completion_is_receiver_side(self):
        topo, spec = self._run_flow(15_000)
        record = topo.network.flow_stats.flows[spec.flow_id]
        assert record.finish_time is not None
        assert record.finish_time > record.start_time

    def test_unknown_host_in_flow_rejected(self):
        topo = SingleSwitchTopology(2, lambda: CompleteSharing())
        with pytest.raises(ValueError):
            topo.network.inject_flows(
                [FlowSpec(src=0, dst=99, size_bytes=1000, start_time=0.0,
                          flow_id=1)]
            )

    def test_unnumbered_flow_rejected(self):
        topo = SingleSwitchTopology(2, lambda: CompleteSharing())
        with pytest.raises(ValueError, match="no flow_id"):
            topo.network.inject_flows(
                [FlowSpec(src=0, dst=1, size_bytes=1000, start_time=0.0)])


class TestDctcpBehaviour:
    def test_ecn_keeps_queue_below_dropping(self):
        """DCTCP with ECN marking should avoid drops for a single bulk flow."""
        topo = SingleSwitchTopology(
            num_hosts=3,
            manager_factory=lambda: DynamicThreshold(alpha=4.0),
            link_rate_bps=10 * GBPS,
            ecn_threshold_bytes=30 * KB,
        )
        flows = number_flows([
            FlowSpec(src=s, dst=0, size_bytes=400_000, start_time=0.0)
            for s in (1, 2)])
        topo.network.inject_flows(flows, transport="dctcp")
        topo.network.run(until=1.0)
        assert topo.network.flow_stats.completion_fraction() == 1.0
        assert topo.switch.stats.ecn_marked_packets > 0
        # With marking active the switch should see few, if any, drops.
        assert topo.switch.stats.dropped_packets < 20

    def test_dctcp_alpha_updates(self):
        topo = SingleSwitchTopology(
            num_hosts=2, manager_factory=lambda: CompleteSharing(),
            link_rate_bps=10 * GBPS, ecn_threshold_bytes=15 * KB,
        )
        spec = FlowSpec(src=0, dst=1, size_bytes=500_000, start_time=0.0,
                        flow_id=1)
        topo.network.inject_flows([spec], transport="dctcp")
        topo.network.run(until=1.0)
        sender = topo.network.hosts[0].senders[spec.flow_id]
        assert sender.finished
        assert 0.0 <= sender.alpha <= 1.0

    def test_retransmission_on_loss(self):
        """A tiny buffer forces drops; the flow must still complete via retransmit."""
        topo = SingleSwitchTopology(
            num_hosts=3,
            manager_factory=lambda: DynamicThreshold(alpha=1.0),
            link_rate_bps=10 * GBPS,
            buffer_bytes=20 * KB,
        )
        flows = number_flows([
            FlowSpec(src=s, dst=0, size_bytes=150_000, start_time=0.0)
            for s in (1, 2)])
        config = TransportConfig(min_rto=1e-3)
        topo.network.set_transport_config(config)
        topo.network.inject_flows(flows, transport="dctcp")
        topo.network.run(until=2.0)
        assert topo.switch.stats.dropped_packets > 0
        assert topo.network.flow_stats.completion_fraction() == 1.0
        senders = [topo.network.hosts[f.src].senders[f.flow_id] for f in flows]
        assert any(s.retransmissions > 0 for s in senders)


class TestReceiverState:
    def test_out_of_order_reassembly(self):
        spec = FlowSpec(src=0, dst=1, size_bytes=4500, start_time=0.0, flow_id=1)
        done = []
        receiver = ReceiverState(spec, TransportConfig(mss_bytes=1500),
                                 on_complete=lambda fid, t: done.append(fid))
        def data(seq):
            return Packet(size_bytes=1540, flow_id=spec.flow_id, src=0, dst=1,
                          seq=seq, payload_bytes=1500)
        ack1 = receiver.on_data(data(1), 0.001)
        assert ack1.ack_seq == 0 and not done
        receiver.on_data(data(0), 0.002)
        ack3 = receiver.on_data(data(2), 0.003)
        assert ack3.ack_seq == 3
        assert done == [spec.flow_id]

    def test_ecn_echoed_in_ack(self):
        spec = FlowSpec(src=0, dst=1, size_bytes=1500, start_time=0.0, flow_id=1)
        receiver = ReceiverState(spec, TransportConfig(),
                                 on_complete=lambda fid, t: None)
        pkt = Packet(size_bytes=1540, flow_id=spec.flow_id, seq=0, payload_bytes=1500)
        pkt.ecn_marked = True
        ack = receiver.on_data(pkt, 0.0)
        assert ack.ecn_echo and ack.is_ack


class TestTopologies:
    def test_dumbbell_cross_traffic_completes(self):
        topo = DumbbellTopology(num_pairs=2, manager_factory=lambda: CompleteSharing(),
                                edge_rate_bps=10 * GBPS)
        flows = number_flows([
            FlowSpec(src=s, dst=r, size_bytes=60_000, start_time=0.0)
            for s, r in zip(topo.senders, topo.receivers, strict=True)])
        topo.network.inject_flows(flows, transport="dctcp")
        topo.network.run(until=1.0)
        assert topo.network.flow_stats.completion_fraction() == 1.0

    def test_leaf_spine_structure(self):
        topo = LeafSpineTopology(lambda: DynamicThreshold(), num_leaves=2,
                                 num_spines=2, hosts_per_leaf=3)
        assert topo.num_hosts == 6
        assert len(topo.leaves) == 2 and len(topo.spines) == 2
        assert topo.hosts_of_leaf(0) == [0, 1, 2]
        # Every leaf has ECMP uplinks registered.
        for leaf in topo.leaves:
            assert len(leaf.routing.uplinks) == 2

    def test_leaf_spine_cross_leaf_flow_completes(self):
        topo = LeafSpineTopology(lambda: DynamicThreshold(alpha=2.0), num_leaves=2,
                                 num_spines=2, hosts_per_leaf=2,
                                 link_rate_bps=10 * GBPS,
                                 ecn_threshold_bytes=30 * KB)
        # Host 0 is on leaf 0, host 3 on leaf 1.
        spec = FlowSpec(src=0, dst=3, size_bytes=100_000, start_time=0.0,
                        flow_id=1)
        topo.network.inject_flows([spec], transport="dctcp")
        topo.network.run(until=1.0)
        assert topo.network.flow_stats.completion_fraction() == 1.0
        # The flow crossed at least one spine switch.
        spine_traffic = sum(s.stats.transmitted_packets for s in topo.spines)
        assert spine_traffic > 0

    def test_occamy_in_network_expels_and_completes(self):
        topo = SingleSwitchTopology(
            num_hosts=5, manager_factory=lambda: Occamy(alpha=8.0),
            link_rate_bps=10 * GBPS, buffer_bytes=60 * KB,
        )
        flows = number_flows([
            FlowSpec(src=s, dst=0, size_bytes=120_000, start_time=0.0,
                     priority=0)
            for s in (1, 2, 3, 4)])
        topo.network.set_transport_config(TransportConfig(min_rto=1e-3))
        topo.network.inject_flows(flows, transport="dctcp")
        topo.network.run(until=2.0)
        assert topo.network.flow_stats.completion_fraction() == 1.0

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            SingleSwitchTopology(1, lambda: CompleteSharing())
        with pytest.raises(ValueError):
            LeafSpineTopology(lambda: CompleteSharing(), num_leaves=1)
        with pytest.raises(ValueError):
            DumbbellTopology(0, lambda: CompleteSharing())
