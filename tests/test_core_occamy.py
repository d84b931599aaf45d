"""Tests for the Occamy scheme and its expulsion machinery."""

from dataclasses import replace

import pytest

from repro.core import BufferManager, DynamicThreshold, Occamy
from repro.core.expulsion import RoundRobinPointer, TokenBucket
from repro.core.registry import make_buffer_manager
from repro.perf import load_case
from repro.scenario import leaf_spine_scenario, run_scenario
from repro.scenario.scales import get_scale
from repro.sim import Simulator
from repro.sim.units import GBPS, KB
from repro.switchsim import Packet, SharedMemorySwitch, SwitchConfig

from test_properties import reference_bitmap  # the comparators, recomputed


def make_switch(manager, num_ports=2, buffer_bytes=500 * KB, memory_bandwidth_bps=None):
    sim = Simulator()
    config = SwitchConfig(
        num_ports=num_ports,
        port_rate_bps=10 * GBPS,
        buffer_bytes=buffer_bytes,
        memory_bandwidth_bps=memory_bandwidth_bps,
    )
    return SharedMemorySwitch(config, manager, sim), sim


class TestOccamyConfig:
    def test_defaults_match_paper(self):
        occ = Occamy()
        assert occ.alpha == 8.0
        assert occ.victim_policy == "round_robin"
        assert occ.uses_expulsion_engine

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Occamy(victim_policy="bogus")
        with pytest.raises(ValueError):
            Occamy(expulsion_bandwidth_fraction=0)
        with pytest.raises(ValueError):
            Occamy(max_drops_per_run=0)

    def test_longest_drop_variant(self):
        variant = make_buffer_manager("occamy_longest")
        assert variant.victim_policy == "longest"
        assert variant.alpha == 8.0

    def test_fairness_bounds_eq3_eq4(self):
        occ = Occamy(alpha=8.0)
        # Eq. 3 with N=1, M=1: R/V <= 1 + (1+alpha)/alpha = 2.125.
        assert occ.max_fair_arrival_ratio(1, 1) == pytest.approx(1 + 9 / 8)
        # Eq. 4: when V >= R/2 any alpha works (bound <= 0).
        assert occ.min_alpha_inverse(arrival_rate=2.0, expulsion_rate=1.0,
                                     n_bursting=1, n_over_allocated=1) <= 0
        with pytest.raises(ValueError):
            occ.max_fair_arrival_ratio(1, 0)
        with pytest.raises(ValueError):
            occ.min_alpha_inverse(1.0, 0.0, 1, 1)

    def test_admission_is_dt_with_same_alpha(self):
        occ = Occamy(alpha=4.0)
        dt = DynamicThreshold(alpha=4.0)
        switch_occ, _ = make_switch(occ)
        switch_dt, _ = make_switch(dt)
        q_occ = switch_occ.queue_for(0)
        q_dt = switch_dt.queue_for(0)
        assert occ.threshold(q_occ, 0.0) == pytest.approx(dt.threshold(q_dt, 0.0))


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 10)
        with pytest.raises(ValueError):
            TokenBucket(10, 0)

    def test_tokens_accumulate_up_to_capacity(self):
        bucket = TokenBucket(rate_cells_per_sec=100, capacity_cells=50)
        assert bucket.available(0.0) == 50
        bucket.consume_forwarding(50, 0.0)
        assert bucket.available(0.0) == 0
        assert bucket.available(0.25) == pytest.approx(25)
        assert bucket.available(10.0) == 50  # capped at capacity

    def test_forwarding_can_go_negative_expulsion_cannot(self):
        bucket = TokenBucket(rate_cells_per_sec=100, capacity_cells=10)
        bucket.consume_forwarding(25, 0.0)
        assert bucket.available(0.0) < 0
        assert not bucket.try_consume_expulsion(1, 0.0)

    def test_expulsion_consumes_only_when_available(self):
        bucket = TokenBucket(rate_cells_per_sec=100, capacity_cells=10)
        assert bucket.try_consume_expulsion(8, 0.0)
        assert not bucket.try_consume_expulsion(8, 0.0)
        assert bucket.expel_cells_consumed == 8

    def test_time_until(self):
        bucket = TokenBucket(rate_cells_per_sec=100, capacity_cells=10)
        bucket.consume_forwarding(10, 0.0)
        assert bucket.time_until(5, 0.0) == pytest.approx(0.05)
        assert bucket.time_until(0, 0.0) == 0.0

    def test_negative_consumption_rejected(self):
        bucket = TokenBucket(100, 10)
        with pytest.raises(ValueError):
            bucket.consume_forwarding(-1, 0.0)
        with pytest.raises(ValueError):
            bucket.try_consume_expulsion(-1, 0.0)


class TestRoundRobinPointer:
    def test_round_robin_pointer_cycles(self):
        rr = RoundRobinPointer()
        bitmap = [True, False, True, True]
        grants = [rr.grant(bitmap) for _ in range(4)]
        assert grants == [0, 2, 3, 0]

    def test_grant_none_when_empty(self):
        rr = RoundRobinPointer()
        assert rr.grant([False, False]) is None
        assert rr.grant([]) is None


class TestOccamyExpulsionEndToEnd:
    def test_expels_over_allocated_queue_when_burst_arrives(self):
        """The core Occamy behaviour: buffer held by q0 is reclaimed for q1."""
        occ = Occamy(alpha=8.0)
        # Model a chip with lots of spare memory bandwidth.
        switch, sim = make_switch(occ, buffer_bytes=500 * KB,
                                  memory_bandwidth_bps=64 * 10 * GBPS)
        # Saturate queue 0: arrivals at 40 Gbps onto a 10 Gbps port.
        for i in range(400):
            sim.schedule(i * 3e-7, lambda: switch.receive(Packet(size_bytes=1500), 0))
        sim.run(until=400 * 3e-7)
        q0_before = switch.queue_for(0).length_bytes
        assert q0_before > 0.5 * switch.buffer_size_bytes
        # Burst arrives at queue 1 at 100 Gbps.
        start = sim.now
        for i in range(200):
            sim.at(start + i * 1.2e-7,
                   lambda: switch.receive(Packet(size_bytes=1500), 1))
        sim.run(until=start + 300e-6)
        assert switch.stats.expelled_packets > 0
        # Occamy's guarantee: the burst is not dropped *before* reaching its
        # fair share (with 2 congested queues at alpha=8: 8B/17 each).  Drops
        # beyond the fair share are expected and correct.
        fair_share = 8 * switch.buffer_size_bytes / 17
        first_drop = switch.stats.first_drop_queue_length.get(1)
        if switch.queue_for(1).dropped_packets:
            assert first_drop is not None and first_drop >= 0.85 * fair_share

    def test_dt_without_expulsion_has_no_engine(self):
        dt = DynamicThreshold(alpha=8.0)
        switch, _ = make_switch(dt)
        assert switch.expulsion_engine is None

    def test_occamy_switch_has_engine_with_policy(self):
        occ = make_buffer_manager("occamy_longest", alpha=8.0)
        switch, _ = make_switch(occ)
        assert switch.expulsion_engine is not None
        assert switch.expulsion_engine.victim_policy == "longest"


class AlwaysScanOccamy(Occamy):
    """Occamy without the O(1) idle proof: every engine call runs the scan."""

    proves_none_over_allocated = BufferManager.proves_none_over_allocated


class TestExpulsionEngineAccounting:
    def test_token_blocked_grant_still_advances_the_arbiter(self):
        occ = Occamy(alpha=8.0)
        switch, sim = make_switch(occ, num_ports=4)
        engine = switch.expulsion_engine
        for port in (1, 2):
            for _ in range(20):
                switch.receive(Packet(size_bytes=1500), port)
        assert engine.passes == 0  # 60 KB of 500 KB: the idle proof holds
        engine.token_bucket.consume_forwarding(10_000, sim.now)  # deep deficit
        switch.queue_for(1).alpha_override = 0.01
        switch.queue_for(2).alpha_override = 0.01
        assert engine.pointer == 0
        retry_after = engine.run(sim.now)
        assert retry_after > 0
        assert engine.pointer == 2  # granted queue 1, then blocked on tokens
        assert engine.run(sim.now) > 0
        assert engine.pointer == 3  # the next grant went to queue 2
        assert engine.passes == engine.token_blocked_passes == 2
        assert engine.total_expelled_packets == 0
        assert engine.max_victims_per_pass == 0

    def test_pass_counters_track_victims(self):
        occ = Occamy(alpha=8.0)
        switch, sim = make_switch(occ, num_ports=2)
        engine = switch.expulsion_engine
        for _ in range(20):
            switch.receive(Packet(size_bytes=1500), 1)
        queue = switch.queue_for(1)
        queue.alpha_override = 0.0  # threshold 0: everything queued must go
        queued = queue.length_packets
        assert engine.run(sim.now) == 0.0
        assert queue.length_packets == 0
        assert engine.passes == 1 and engine.token_blocked_passes == 0
        assert engine.max_victims_per_pass == queued
        assert engine.total_expelled_packets == queued == queue.expelled_packets
        assert engine.total_expelled_bytes == queue.expelled_bytes


class TestBucketSmallerThanTheHeadPacket:
    """A one-cell bucket can never cover a 1500 B (8-cell) head packet."""

    def drive(self, manager):
        sim = Simulator()
        config = SwitchConfig(num_ports=4, port_rate_bps=10 * GBPS,
                              buffer_bytes=200 * KB,
                              expulsion_token_capacity_bytes=200)
        switch = SharedMemorySwitch(config, manager, sim)
        fates = []
        # 40 Gbps into port 0, then 40 Gbps into port 1 while queue 0 still
        # holds most of the buffer: queue 0 ends up far over its threshold.
        for i in range(1200):
            port = 0 if i < 800 else 1
            sim.at(i * 3e-7, lambda port=port: fates.append(
                switch.receive(Packet(size_bytes=1500), port)))
        events = sim.run()
        return switch, fates, events

    def test_is_dt_drop_for_drop_and_event_for_event(self):
        occamy, occamy_fates, occamy_events = self.drive(Occamy(alpha=8.0))
        dt, dt_fates, dt_events = self.drive(DynamicThreshold(alpha=8.0))
        engine = occamy.expulsion_engine
        # The engine did find victims; every grant was blocked for tokens...
        assert engine.token_blocked_passes == engine.passes > 100
        assert occamy.stats.expelled_packets == 0
        # ...and not one retry was scheduled for a grant that cannot come.
        assert occamy._expulsion_retry_event is None
        assert occamy_events == dt_events
        assert occamy_fates == dt_fates and not all(dt_fates)
        assert occamy.stats.summary() == dt.stats.summary()
        assert dict(occamy.stats.drop_reasons) == dict(dt.stats.drop_reasons)

    def test_bucket_below_one_cell_is_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            SwitchConfig(expulsion_token_capacity_bytes=199)
        with pytest.raises(ValueError, match="at least one cell"):
            SwitchConfig(cell_bytes=256, expulsion_token_capacity_bytes=200)
        SwitchConfig(expulsion_token_capacity_bytes=200)  # one cell: accepted


class TestAlphaOverrideWrittenMidRun:
    def drive(self, manager):
        """The same packet-by-packet schedule with the same mid-run writes."""
        switch, sim = make_switch(manager, num_ports=3, buffer_bytes=500 * KB,
                                  memory_bandwidth_bps=64 * 10 * GBPS)
        history = []

        def arrive(port):
            switch.receive(Packet(size_bytes=1500), port)
            engine = switch.expulsion_engine
            # The reference comparators never see an over-allocated queue
            # the engine left alone: it either cleared the bitmap or stopped
            # for tokens (retry pending) or at its per-run cap.
            assert (not any(reference_bitmap(switch))
                    or switch._expulsion_retry_event is not None
                    or engine.max_victims_per_pass == engine.max_drops_per_run)
            history.append([q.expelled_packets for q in switch.queue_views()])

        # 30 Gbps into each of two 10 Gbps ports: both queues grow, yet the
        # buffer stays far below 8/9 full, so with the scheme alpha (8) the
        # idle proof holds on every call.
        for i in range(300):
            sim.at(i * 2e-7, lambda port=i % 2: arrive(port))
        low = 100 * 2e-7
        high = 200 * 2e-7
        sim.at(low, lambda: setattr(switch.queue_for(0), "alpha_override", 0.05))
        sim.at(high, lambda: setattr(switch.queue_for(0), "alpha_override", None))
        sim.run(until=low)
        at_low = switch.expulsion_engine.passes
        sim.run(until=high)
        at_high = switch.expulsion_engine.passes
        sim.run(until=400 * 2e-7)
        return switch, history, (at_low, at_high)

    def test_cached_minimum_follows_the_writes(self):
        occ = Occamy(alpha=8.0)
        switch, history, (at_low, at_high) = self.drive(occ)
        assert occ._alpha_min == 8.0
        engine = switch.expulsion_engine
        assert 9 * switch.stats.max_occupancy_bytes <= 8 * switch.buffer_size_bytes
        # No pass before the write, passes while queue 0 is held at
        # alpha=0.05, none after it is back to the scheme alpha.
        assert at_low == 0
        assert at_high > 0
        assert engine.passes == at_high
        assert switch.queue_for(0).expelled_packets > 0
        assert switch.queue_for(1).expelled_packets == 0
        # Same victims, packet by packet, as an engine that always scans.
        reference, reference_history, _ = self.drive(AlwaysScanOccamy(alpha=8.0))
        assert history == reference_history
        assert (reference.expulsion_engine.total_expelled_packets
                == engine.total_expelled_packets)

    def test_minimum_tracks_every_queue(self):
        occ = Occamy(alpha=8.0)
        switch, _ = make_switch(occ, num_ports=3)
        assert occ._alpha_min == 8.0
        switch.queue_for(2).alpha_override = 2.0
        switch.queue_for(1).alpha_override = -1.0
        assert occ._alpha_min == -1.0
        switch.queue_for(1).alpha_override = None
        assert occ._alpha_min == 2.0
        switch.queue_for(2).alpha_override = 16.0
        assert occ._alpha_min == 8.0


class TestEnginePassTripwires:
    """Counts, not timings: the idle proof keeps expulsion-free runs pass-free."""

    def test_expulsion_free_leaf_spine_runs_no_pass(self):
        spec = leaf_spine_scenario(
            scheme="occamy", config=replace(get_scale("bench"),
                                            fabric_duration=0.002),
            query_size_bytes=60_000, background_load=0.5,
        )
        result = run_scenario(spec)
        assert sum(s.stats.arrived_packets for s in result.switches()) > 1_000
        assert result.total_expelled() == 0
        for switch in result.switches():
            assert switch.expulsion_engine.passes == 0

    def test_expelling_run_keeps_its_victim_count(self):
        # dumbbell_burst expels nothing (0 at PR 12 too), so the
        # expelling tripwire rides on the bare-switch perf case instead.
        result = run_scenario(load_case("raw_switch_stream"))
        engine = result.switch.expulsion_engine
        assert engine.passes > 0
        assert engine.total_expelled_packets == 2355  # as at PR 12
        assert engine.total_expelled_packets == result.switch.stats.expelled_packets

