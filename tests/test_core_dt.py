"""Tests for Dynamic Threshold and the static schemes."""

import math

import pytest

from repro.core import (
    CompletePartitioning,
    CompleteSharing,
    DynamicThreshold,
    Occamy,
    StaticThreshold,
)
from repro.sim import Simulator
from repro.sim.units import GBPS, KB, MB
from repro.switchsim import Packet, SharedMemorySwitch, SwitchConfig


def make_switch(manager, num_ports=4, queues_per_port=1, buffer_bytes=1 * MB):
    sim = Simulator()
    config = SwitchConfig(
        num_ports=num_ports,
        queues_per_port=queues_per_port,
        port_rate_bps=10 * GBPS,
        buffer_bytes=buffer_bytes,
    )
    return SharedMemorySwitch(config, manager, sim), sim


class TestDynamicThreshold:
    def test_threshold_is_alpha_times_free_buffer(self):
        dt = DynamicThreshold(alpha=2.0)
        switch, _ = make_switch(dt, buffer_bytes=1 * MB)
        queue = switch.queue_for(0)
        assert dt.threshold(queue, 0.0) == pytest.approx(2.0 * switch.free_buffer_bytes)

    def test_threshold_shrinks_as_buffer_fills(self):
        dt = DynamicThreshold(alpha=1.0)
        switch, _ = make_switch(dt)
        queue = switch.queue_for(0)
        before = dt.threshold(queue, 0.0)
        switch.receive(Packet(size_bytes=100 * KB), 0)
        after = dt.threshold(queue, 0.0)
        assert after < before

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            DynamicThreshold(alpha=0)
        with pytest.raises(ValueError):
            DynamicThreshold(alpha=-1)

    def test_per_queue_alpha_override(self):
        dt = DynamicThreshold(alpha=1.0)
        switch, _ = make_switch(dt, num_ports=2)
        q0, q1 = switch.queue_for(0), switch.queue_for(1)
        q1.alpha_override = 8.0
        assert dt.threshold(q1, 0.0) == pytest.approx(8 * dt.threshold(q0, 0.0))

    def test_negative_alpha_override_clamps_to_zero(self):
        # clamp_threshold used to absorb non-positive per-queue overrides;
        # the inlined hot path must preserve that: threshold 0, everything
        # rejected over-threshold, and empty queues never "over-allocated"
        # (a negative threshold would make the expulsion engine spin).
        dt = DynamicThreshold(alpha=1.0)
        switch, _ = make_switch(dt, num_ports=2)
        queue = switch.queue_for(0)
        queue.alpha_override = -3.0
        assert dt.threshold(queue, 0.0) == 0.0
        decision = dt.admit(queue, 100, 0.0)
        assert not decision.accept and decision.reason == "over_threshold"
        assert not dt.over_allocated(queue, 0.0)
        assert dt.first_over_allocated(0, 0.0) is None
        assert dt.longest_over_allocated(0.0) is None

    @pytest.mark.parametrize("cls", [DynamicThreshold, Occamy])
    def test_alpha_written_after_attach_matches_a_fresh_manager(self, cls):
        manager = cls(alpha=1.0)
        switch, _ = make_switch(manager, num_ports=4)
        for port, count in ((0, 60), (1, 40), (2, 5)):
            for _ in range(count):
                assert switch.receive(Packet(size_bytes=1500), port)
        switch.queue_for(3).alpha_override = 2.0
        queue0 = switch.queue_for(0)
        assert manager.admit(queue0, 1500, 0.0).accept
        manager.alpha = 0.05
        # Admission, thresholds, the idle proof and the victim scan all see
        # the write, exactly as a manager built with the new alpha would.
        fresh = cls(alpha=0.05)
        fresh.attach(switch)
        assert not manager.admit(queue0, 1500, 0.0).accept
        for queue in switch.queue_views():
            assert manager.threshold(queue, 0.0) == fresh.threshold(queue, 0.0)
            assert manager.admit(queue, 1500, 0.0) is fresh.admit(queue, 1500, 0.0)
        assert manager.proves_none_over_allocated() is False
        assert fresh.proves_none_over_allocated() is False
        for start in range(switch.total_queue_count):
            assert (manager.first_over_allocated(start, 0.0)
                    == fresh.first_over_allocated(start, 0.0))
        assert manager.first_over_allocated(1, 0.0) == 1
        with pytest.raises(ValueError):
            manager.alpha = 0

    def test_steady_state_formulas(self):
        dt = DynamicThreshold(alpha=8.0)
        buffer_bytes = 900 * KB
        free = dt.steady_state_free_buffer(1, buffer_bytes)
        assert free == pytest.approx(buffer_bytes / 9)
        qlen = dt.steady_state_queue_length(1, buffer_bytes)
        assert qlen == pytest.approx(8 * buffer_bytes / 9)
        # Queue lengths plus free buffer account for the whole buffer.
        assert qlen + free == pytest.approx(buffer_bytes)

    def test_steady_state_validation(self):
        dt = DynamicThreshold()
        with pytest.raises(ValueError):
            dt.steady_state_free_buffer(-1, 100)
        with pytest.raises(ValueError):
            dt.steady_state_queue_length(0, 100)

    def test_admit_rejects_when_over_threshold(self):
        dt = DynamicThreshold(alpha=0.5)
        switch, _ = make_switch(dt, buffer_bytes=100 * KB)
        # Fill queue 0 close to its threshold.
        accepted = 0
        for _ in range(200):
            if switch.receive(Packet(size_bytes=1500), 0):
                accepted += 1
        # With alpha=0.5 a single queue can occupy at most 1/3 of the buffer.
        assert switch.queue_for(0).length_bytes <= 0.4 * switch.buffer_size_bytes
        assert switch.stats.dropped_packets > 0

    def test_describe_mentions_alpha(self):
        assert "8" in DynamicThreshold(alpha=8).describe()

    def test_unattached_manager_raises(self):
        dt = DynamicThreshold()
        with pytest.raises(RuntimeError):
            dt.admit(None, 1500, 0.0)  # type: ignore[arg-type]


class TestStaticSchemes:
    def test_complete_sharing_unbounded_threshold(self):
        cs = CompleteSharing()
        switch, _ = make_switch(cs)
        assert math.isinf(cs.threshold(switch.queue_for(0), 0.0))

    def test_complete_sharing_accepts_until_buffer_full(self):
        cs = CompleteSharing()
        switch, _ = make_switch(cs, buffer_bytes=50 * KB)
        sent = 0
        while switch.receive(Packet(size_bytes=1500), 0):
            sent += 1
            if sent > 1000:
                pytest.fail("buffer never filled")
        assert switch.occupancy_bytes >= switch.buffer_size_bytes - 2 * 1500

    def test_complete_partitioning_divides_equally(self):
        cp = CompletePartitioning()
        switch, _ = make_switch(cp, num_ports=4)
        expected = switch.buffer_size_bytes / 4
        assert cp.threshold(switch.queue_for(0), 0.0) == pytest.approx(expected)

    def test_static_threshold_fixed_cap(self):
        st = StaticThreshold(threshold_bytes=10 * KB)
        switch, _ = make_switch(st)
        assert st.threshold(switch.queue_for(0), 0.0) == 10 * KB

    def test_static_threshold_default_is_buffer_over_ports(self):
        st = StaticThreshold()
        switch, _ = make_switch(st, num_ports=8)
        assert st.threshold(switch.queue_for(0), 0.0) == pytest.approx(
            switch.buffer_size_bytes / 8
        )

    def test_static_threshold_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StaticThreshold(threshold_bytes=0)
