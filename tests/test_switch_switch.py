"""Integration-style tests of the shared-memory switch traffic manager."""

import pytest

from repro.core import CompleteSharing, DynamicThreshold, Occamy
from repro.sim import Simulator
from repro.sim.units import GBPS, KB, MB
from repro.switchsim import Packet, SharedMemorySwitch, SwitchConfig
from repro.switchsim.pipeline import DequeuePipeline, PipelineOperation


def make_switch(manager=None, **overrides):
    sim = Simulator()
    defaults = dict(num_ports=2, queues_per_port=1, port_rate_bps=10 * GBPS,
                    buffer_bytes=200 * KB)
    defaults.update(overrides)
    config = SwitchConfig(**defaults)
    switch = SharedMemorySwitch(config, manager or CompleteSharing(), sim)
    return switch, sim


class TestSwitchBasics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SwitchConfig(num_ports=0)
        with pytest.raises(ValueError):
            SwitchConfig(buffer_bytes=0)
        with pytest.raises(ValueError):
            SwitchConfig(queues_per_port=0)

    def test_queue_indexing(self):
        switch, _ = make_switch(queues_per_port=3, num_ports=2)
        assert switch.total_queue_count == 6
        q = switch.queue_for(1, 2)
        assert q.port_id == 1 and q.class_index == 2
        assert switch.queue(q.queue_id) is q

    def test_receive_validates_port(self):
        switch, _ = make_switch()
        with pytest.raises(ValueError):
            switch.receive(Packet(size_bytes=100), 99)

    def test_receive_rejects_a_class_outside_the_port(self):
        # Regression: priority -1 indexed the previous port's last queue.
        switch, _ = make_switch(num_ports=2, queues_per_port=2)
        for packet, class_index in ((Packet(size_bytes=100, priority=-1), None),
                                    (Packet(size_bytes=100), 2),
                                    (Packet(size_bytes=100), -1)):
            with pytest.raises(ValueError, match="class index"):
                switch.receive(packet, 1, class_index)
        assert switch.stats.arrived_packets == 0
        assert switch.occupancy_bytes == 0
        # Priorities above the last class still clamp onto it.
        assert switch.receive(Packet(size_bytes=100, priority=7), 1)
        assert switch.queue_for(1, 1).enqueued_packets == 1

    def test_packet_forwarded_end_to_end(self):
        transmitted = []
        sim = Simulator()
        config = SwitchConfig(num_ports=2, port_rate_bps=10 * GBPS,
                              buffer_bytes=200 * KB)
        switch = SharedMemorySwitch(config, CompleteSharing(), sim,
                                    on_transmit=lambda p, port: transmitted.append((p, port)))
        packet = Packet(size_bytes=1500)
        assert switch.receive(packet, 1)
        sim.run()
        assert transmitted == [(packet, 1)]
        assert switch.occupancy_bytes == 0
        assert switch.stats.transmitted_packets == 1

    def test_serialization_time_matches_port_rate(self):
        switch, sim = make_switch()
        switch.receive(Packet(size_bytes=1500), 0)
        sim.run()
        assert sim.now == pytest.approx(1.2e-6)

    def test_conservation_of_packets(self):
        """arrived == transmitted + dropped + expelled + evicted + still queued."""
        switch, sim = make_switch(manager=Occamy(alpha=8.0), buffer_bytes=100 * KB)
        for i in range(300):
            sim.schedule(i * 2e-7, lambda: switch.receive(Packet(size_bytes=1500), 0))
        sim.run(until=40e-6)  # stop mid-flight, some packets still queued
        stats = switch.stats
        queued = sum(q.length_packets for q in switch.queue_views())
        in_flight = sum(1 for port in switch.ports if port.busy)
        assert stats.arrived_packets == (
            stats.transmitted_packets + stats.dropped_packets + stats.expelled_packets
            + stats.evicted_packets + queued + in_flight
        )

    def test_occupancy_never_exceeds_buffer(self):
        switch, sim = make_switch(manager=CompleteSharing(), buffer_bytes=50 * KB)
        for i in range(500):
            sim.schedule(i * 1e-7, lambda: switch.receive(Packet(size_bytes=1500), 0))
            sim.schedule(i * 1e-7, lambda: switch.receive(Packet(size_bytes=1500), 1))
        sim.run()
        assert switch.stats.max_occupancy_bytes <= switch.buffer_size_bytes

    def test_ecn_marking_above_threshold(self):
        switch, sim = make_switch(manager=CompleteSharing(),
                                  ecn_threshold_bytes=10 * 1500,
                                  buffer_bytes=1 * MB)
        marked = []
        for i in range(50):
            pkt = Packet(size_bytes=1500, ecn_capable=True)
            sim.schedule(i * 1e-8, lambda p=pkt: (switch.receive(p, 0), marked.append(p)))
        sim.run(until=1e-5)
        assert switch.stats.ecn_marked_packets > 0
        assert any(p.ecn_marked for p in marked)
        # Packets admitted while the queue was short must not be marked.
        assert not marked[0].ecn_marked

    def test_non_ecn_capable_packets_never_marked(self):
        switch, sim = make_switch(manager=CompleteSharing(),
                                  ecn_threshold_bytes=1500, buffer_bytes=1 * MB)
        for i in range(30):
            sim.schedule(i * 1e-8,
                         lambda: switch.receive(Packet(size_bytes=1500, ecn_capable=False), 0))
        sim.run(until=1e-5)
        assert switch.stats.ecn_marked_packets == 0

    def test_per_class_queueing_with_priority(self):
        switch, sim = make_switch(queues_per_port=2, scheduler="strict",
                                  manager=CompleteSharing(), buffer_bytes=1 * MB)
        order = []
        sim2 = switch.sim
        switch.on_transmit = lambda p, port: order.append(p.priority)
        # Enqueue low-priority first, then high-priority; HP must jump ahead
        # once the current transmission completes.
        for _ in range(5):
            switch.receive(Packet(size_bytes=1500, priority=1), 0)
        for _ in range(5):
            switch.receive(Packet(size_bytes=1500, priority=0), 0)
        sim2.run()
        # First packet out was already committed (LP), everything HP then LP.
        assert order[0] == 1
        assert order[1:6] == [0] * 5
        assert order[6:] == [1] * 4

    def test_class_is_packet_priority_clamped_unless_named(self):
        switch, _ = make_switch(queues_per_port=2, num_ports=2,
                                manager=CompleteSharing(), buffer_bytes=1 * MB)
        switch.receive(Packet(size_bytes=1500, priority=0), 0)
        switch.receive(Packet(size_bytes=1500, priority=7), 0)  # clamped to 1
        switch.receive(Packet(size_bytes=1500, priority=0), 1, class_index=1)
        assert [q.enqueued_packets for q in switch.queue_views()] == [1, 1, 0, 1]

    def test_bookkeeping_hooks_reach_a_scheme_that_overrides_them(self):
        class Recording(DynamicThreshold):
            def __init__(self):
                super().__init__(alpha=1.0)
                self.calls = []

            def on_enqueue(self, queue, packet_bytes, now):
                self.calls.append(("enqueue", queue.queue_id, packet_bytes))

            def on_dequeue(self, queue, packet_bytes, now):
                self.calls.append(("dequeue", queue.queue_id, packet_bytes))

            def on_drop(self, queue, packet_bytes, now, reason):
                self.calls.append(("drop", queue.queue_id, packet_bytes, reason))

        manager = Recording()
        switch, sim = make_switch(manager=manager, buffer_bytes=10 * KB)
        assert switch.receive(Packet(size_bytes=3000), 0)
        assert switch.receive(Packet(size_bytes=3000), 0)
        assert not switch.receive(Packet(size_bytes=4000), 0)  # over threshold
        assert switch.head_drop(0) == 3000
        sim.run()
        assert manager.calls == [
            ("enqueue", 0, 3000), ("enqueue", 0, 3000),
            ("drop", 0, 4000, "over_threshold"), ("drop", 0, 3000, "expelled"),
            ("dequeue", 0, 3000)]
        # The built-in schemes leave all three as no-ops: nothing to call.
        plain, _ = make_switch(manager=DynamicThreshold(alpha=1.0))
        assert (plain._mgr_on_enqueue is plain._mgr_on_dequeue
                is plain._mgr_on_drop is None)

    def test_head_drop_frees_buffer_without_data_read(self):
        switch, sim = make_switch(manager=CompleteSharing(), buffer_bytes=100 * KB)
        for _ in range(10):
            switch.receive(Packet(size_bytes=1500), 0)
        reads_before = switch.cell_pool.data_memory_reads
        occupancy_before = switch.occupancy_bytes
        freed = switch.head_drop(0)
        assert freed == 1500
        assert switch.occupancy_bytes < occupancy_before
        assert switch.cell_pool.data_memory_reads == reads_before
        assert switch.stats.expelled_packets == 1

    def test_head_drop_on_empty_queue_returns_none(self):
        switch, _ = make_switch()
        assert switch.head_drop(0) is None

    def test_buffer_utilization_and_threshold_helpers(self):
        switch, _ = make_switch(manager=DynamicThreshold(alpha=1.0),
                                buffer_bytes=100 * KB)
        assert switch.buffer_utilization() == 0.0
        switch.receive(Packet(size_bytes=50 * KB), 0)
        assert 0.4 < switch.buffer_utilization() < 0.6
        assert switch.threshold_of(0) == pytest.approx(switch.free_buffer_bytes)

    def test_active_queue_count_by_priority(self):
        switch, _ = make_switch(queues_per_port=2, manager=CompleteSharing(),
                                buffer_bytes=1 * MB)
        # Backlog each queue with several packets (the first packet per port
        # goes straight to the wire and does not count as queued).
        for _ in range(4):
            switch.receive(Packet(size_bytes=1500, priority=0), 0)
            switch.receive(Packet(size_bytes=1500, priority=1), 1)
        assert switch.active_queue_count() == 2
        assert switch.active_queue_count(priority=0) == 1
        assert switch.active_queue_count(priority=1) == 1


class TestDequeuePipeline:
    def test_dequeue_touches_all_memories(self):
        schedule = DequeuePipeline().dequeue(num_cells=8)
        assert schedule.accesses("pd") == 2
        assert schedule.accesses("cell_pointer") == 16
        assert schedule.accesses("cell_data") == 8

    def test_head_drop_never_reads_cell_data(self):
        schedule = DequeuePipeline().head_drop(num_cells=8)
        assert schedule.accesses("cell_data") == 0
        assert PipelineOperation.READ_CELL_DATA not in schedule.operations

    def test_parallel_pointer_lists_reduce_cycles(self):
        slow = DequeuePipeline(parallel_pointer_lists=1).head_drop(8).cycles
        fast = DequeuePipeline(parallel_pointer_lists=4).head_drop(8).cycles
        assert fast < slow

    def test_drops_per_second_positive(self):
        rate = DequeuePipeline().drops_per_second(clock_hz=1e9, cells_per_packet=8)
        assert rate > 1e7

    def test_validation(self):
        with pytest.raises(ValueError):
            DequeuePipeline(parallel_pointer_lists=0)
        with pytest.raises(ValueError):
            DequeuePipeline().dequeue(0)
        with pytest.raises(ValueError):
            DequeuePipeline().drops_per_second(0, 8)
