"""Arrival streams: ``EventQueue.push_stream`` against N ``push_callback`` calls.

A stream keeps one arrival of a pre-known schedule in the heap and feeds the
next as each fires.  The reference is the same schedule pushed one callback
per arrival: firing order, ``events_executed`` and ``pending_events`` must
agree at every pause, whatever else shares the heap.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import EventQueue

#: Few distinct instants, so schedules are full of repeated timestamps.
instants = st.integers(min_value=0, max_value=6).map(lambda tick: tick * 0.25)
ports = st.integers(min_value=0, max_value=3)
group = st.lists(st.tuples(instants, ports), max_size=12)
pauses = st.lists(
    st.one_of(
        st.tuples(st.just("until"), instants),
        st.tuples(st.just("max_events"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("drain"), st.none()),
    ),
    max_size=5,
)


def make_packet(size):
    return ("packet", size)


def size_of(index):
    """The size of the ``index``-th arrival: its identity in the log, unique
    but not monotone, so nothing can lean on it for order."""
    return index * 37 % 101


class Harness:
    """One simulator loaded with a scenario, either way of scheduling it."""

    def __init__(self, streamed, groups, before, after, stop_on):
        self.sim = Simulator()
        self.log = []
        self.stop_on = {size_of(index) for index in stop_on}
        sim = self.sim
        for time in before:  # ordinary events scheduled ahead of the arrivals
            sim.at(time, partial(self.note, "before", time))
        count = 0
        for arrivals in groups:
            sized = []
            for time, port in arrivals:
                sized.append((time, size_of(count), port))
                count += 1
            if streamed:
                sim.kernel.push_stream(sized, self.receive, make_packet)
            else:
                for time, size, port in sized:
                    sim.kernel.push_callback(
                        time, partial(self.receive, make_packet(size), port))
        for time in after:  # ...and behind them
            sim.at(time, partial(self.note, "after", time))

    def note(self, *what):
        sim = self.sim
        # What a callback can see of the queue while it runs is compared too.
        self.log.append((sim.now, sim.events_executed, sim.pending_events,
                         sim.kernel.peek_time()) + what)

    def receive(self, packet, port):
        self.note("arrival", packet, port)
        size = packet[1]
        # More work at the firing instant and later, as a switch would add.
        self.sim.schedule_fast(0.0, partial(self.note, "same-instant", size))
        if size % 3 == 0:
            self.sim.schedule(0.25 * (1 + port), partial(self.note, "later", size))
        if size in self.stop_on:
            self.sim.stop()

    def state(self):
        sim = self.sim
        return (sim.now, sim.events_executed, sim.pending_events, len(self.log))

    def play(self, plan):
        """Run pause by pause; the trail of states and the final log."""
        sim = self.sim
        trail = [self.state()]
        for kind, value in plan:
            if kind == "until":
                if value < sim.now:
                    continue
                executed = sim.run(until=value)
            elif kind == "max_events":
                executed = sim.run(max_events=value)
            else:
                executed = sim.run()
            trail.append((executed,) + self.state())
        for _ in range(len(self.stop_on) + 1):  # drain; each stop() pauses once
            trail.append((sim.run(),) + self.state())
        return trail, self.log


@given(groups=st.lists(group, min_size=1, max_size=3),
       before=st.lists(instants, max_size=3),
       after=st.lists(instants, max_size=3),
       stop_on=st.sets(st.integers(min_value=0, max_value=11), max_size=2),
       plan=pauses)
@settings(max_examples=300, deadline=None)
def test_stream_fires_like_one_callback_per_arrival(groups, before, after,
                                                    stop_on, plan):
    streamed = Harness(True, groups, before, after, stop_on)
    pushed = Harness(False, groups, before, after, stop_on)
    # At most one heap entry per stream, however long the schedule.
    assert len(streamed.sim.kernel._heap) <= (
        len(before) + len(after) + sum(1 for arrivals in groups if arrivals))
    assert streamed.play(plan) == pushed.play(plan)
    assert streamed.sim.pending_events == 0


@given(groups=st.lists(group, min_size=1, max_size=2), cut=instants)
@settings(max_examples=100, deadline=None)
def test_reset_mid_stream_drops_the_unfed_remainder(groups, cut):
    streamed = Harness(True, groups, [], [], set())
    pushed = Harness(False, groups, [], [], set())
    for harness in (streamed, pushed):
        harness.sim.run(until=cut)
        harness.sim.reset()
    assert streamed.state() == pushed.state()
    assert streamed.sim.pending_events == 0
    assert streamed.sim.run() == 0 and streamed.log == pushed.log


def test_stream_of_n_arrivals_holds_one_heap_entry():
    sim = Simulator()
    fired = []
    arrivals = [(1e-6 * (i // 3), 100 + i, i % 4) for i in range(300)]
    sim.kernel.push_stream(arrivals, lambda packet, port: fired.append(packet),
                           make_packet)
    assert len(sim.kernel._heap) == 1
    assert sim.pending_events == 300
    assert sim.run(max_events=120) == 120
    assert len(sim.kernel._heap) == 1
    assert sim.pending_events == 180
    sim.run()
    assert fired == [make_packet(100 + i) for i in range(300)]
    assert sim.pending_events == 0 and not sim.kernel


def test_stream_reserves_the_sequence_numbers_of_n_pushes():
    streamed, pushed = EventQueue(), EventQueue()
    arrivals = [(0.5, 1, 0), (0.25, 2, 1), (0.5, 3, 0)]
    streamed.push_stream(arrivals, lambda packet, port: None, make_packet)
    for time, _size, _port in arrivals:
        pushed.push_callback(time, lambda: None)
    assert streamed.push(1.0, lambda: None).seq == 3
    assert pushed.push(1.0, lambda: None).seq == 3
    # The cursor entry carries the earliest arrival's own number.
    assert streamed.pop_entry()[:3] == pushed.pop_entry()[:3] == (0.25, 0, 1)


def test_popped_cursor_feeds_the_next_arrival_when_called():
    queue = EventQueue()
    got = []
    queue.push_stream([(0.0, 1, 0), (0.0, 2, 1)],
                      lambda packet, port: got.append((packet, port)), make_packet)
    first = queue.pop()
    assert (first.time, first.seq) == (0.0, 0) and len(queue) == 1
    first.callback()
    assert got == [(make_packet(1), 0)] and queue.peek_time() == 0.0
    queue.pop().callback()
    assert got == [(make_packet(1), 0), (make_packet(2), 1)] and len(queue) == 0


def test_nan_arrival_rejected_before_anything_is_scheduled():
    queue = EventQueue()
    with pytest.raises(ValueError, match="time NaN"):
        queue.push_stream([(0.0, 1, 0), (float("nan"), 2, 0)],
                          lambda packet, port: None, make_packet)
    assert len(queue) == 0 and not queue
    assert queue.push(0.0, lambda: None).seq == 0  # no number was drawn


def test_empty_stream_schedules_nothing():
    queue = EventQueue()
    queue.push_stream([], lambda packet, port: None, make_packet)
    assert len(queue) == 0 and queue.pop() is None


def test_clear_drops_unfed_arrivals():
    queue = EventQueue()
    queue.push_stream([(0.0, 1, 0), (1.0, 2, 0), (2.0, 3, 0)],
                      lambda packet, port: None, make_packet)
    assert len(queue) == 3
    queue.clear()
    assert len(queue) == 0 and queue.peek_time() is None
