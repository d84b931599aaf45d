"""Tests for switch queues and egress schedulers."""

import pytest

from repro.switchsim.cells import PacketDescriptor
from repro.switchsim.packet import Packet
from repro.switchsim.queue import SwitchQueue
from repro.switchsim.scheduler import (
    DeficitRoundRobinScheduler,
    FifoScheduler,
    StrictPriorityScheduler,
    make_scheduler,
)


def make_pd(size):
    return PacketDescriptor(packet=Packet(size_bytes=size), num_cells=1)


def filled_queue(queue_id=0, port_id=0, sizes=(1500, 1500), **kwargs):
    q = SwitchQueue(queue_id=queue_id, port_id=port_id, **kwargs)
    for s in sizes:
        q.push(make_pd(s))
    return q


class TestSwitchQueue:
    def test_push_pop_fifo_order(self):
        q = SwitchQueue(0, 0)
        first, second = make_pd(100), make_pd(200)
        q.push(first)
        q.push(second)
        assert q.length_bytes == 300
        assert q.pop_head() is first
        assert q.pop_head() is second
        assert q.pop_head() is None

    def test_pop_tail(self):
        q = SwitchQueue(0, 0)
        first, second = make_pd(100), make_pd(200)
        q.push(first)
        q.push(second)
        assert q.pop_tail() is second
        assert q.length_bytes == 100

    def test_peek_does_not_remove(self):
        q = filled_queue()
        assert q.peek_head() is not None
        assert q.length_packets == 2

    def test_active_flag(self):
        q = SwitchQueue(0, 0)
        assert not q.is_active
        q.push(make_pd(100))
        assert q.is_active

    def test_drain_rate_estimate_converges(self):
        q = SwitchQueue(0, 0)
        # 1500 bytes every 1.2us -> 1.25 GB/s.
        t = 0.0
        for _ in range(100):
            t += 1.2e-6
            q.record_dequeue(1500, t)
        assert q.drain_rate_estimate == pytest.approx(1500 / 1.2e-6, rel=0.05)

    def test_drop_counters(self):
        q = SwitchQueue(0, 0)
        q.record_drop(1500, expelled=False)
        q.record_drop(1500, expelled=True)
        assert q.dropped_packets == 1
        assert q.expelled_packets == 1

    def test_clear(self):
        q = filled_queue()
        q.clear()
        assert q.length_bytes == 0 and len(q) == 0


class TestSchedulers:
    def test_fifo_picks_first_active(self):
        empty = SwitchQueue(0, 0)
        active = filled_queue(queue_id=1)
        assert FifoScheduler().select([empty, active]) is active

    def test_fifo_returns_none_when_all_empty(self):
        assert FifoScheduler().select([SwitchQueue(0, 0)]) is None

    def test_strict_priority_prefers_lowest_priority_value(self):
        low = filled_queue(queue_id=0, priority=1)
        high = filled_queue(queue_id=1, priority=0)
        assert StrictPriorityScheduler().select([low, high]) is high

    def test_strict_priority_falls_back_when_high_empty(self):
        low = filled_queue(queue_id=0, priority=1)
        high = SwitchQueue(1, 0, priority=0)
        assert StrictPriorityScheduler().select([low, high]) is low

    def test_drr_is_byte_fair_with_equal_weights(self):
        sched = DeficitRoundRobinScheduler(quantum_bytes=1500)
        a = filled_queue(queue_id=0, sizes=[1500] * 50)
        b = filled_queue(queue_id=1, sizes=[1500] * 50)
        served = {0: 0, 1: 0}
        for _ in range(40):
            q = sched.select([a, b])
            served[q.queue_id] += q.peek_head().size_bytes
            q.pop_head()
        assert abs(served[0] - served[1]) <= 2 * 1500

    def test_drr_respects_weights(self):
        sched = DeficitRoundRobinScheduler(quantum_bytes=1500)
        a = filled_queue(queue_id=0, sizes=[1500] * 90, weight=3.0)
        b = filled_queue(queue_id=1, sizes=[1500] * 90, weight=1.0)
        served = {0: 0, 1: 0}
        for _ in range(60):
            q = sched.select([a, b])
            served[q.queue_id] += 1
            q.pop_head()
        ratio = served[0] / max(1, served[1])
        assert ratio == pytest.approx(3.0, rel=0.35)

    def test_drr_quantum_validation(self):
        with pytest.raises(ValueError):
            DeficitRoundRobinScheduler(quantum_bytes=0)

    def test_make_scheduler_names(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("strict"), StrictPriorityScheduler)
        assert isinstance(make_scheduler("drr"), DeficitRoundRobinScheduler)
        with pytest.raises(ValueError, match="available: drr, fifo, strict"):
            make_scheduler("bogus")
