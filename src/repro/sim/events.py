"""Event queue primitives for the discrete-event kernel.

The kernel is deliberately small: the queue is a binary heap of
``(time, priority, seq, event)`` tuples.  ``priority`` is a small integer
band that orders events scheduled at the same timestamp *by content* rather
than by scheduling history: ordinary events carry priority 0 and keep FIFO
order among themselves (the sequence number breaks the remaining ties), while
link-arrival events carry the link's stable fabric-wide priority (see
``Network.assign_event_priorities``).  Content-keyed tie-breaking is what
makes the sharded engine byte-identical to the single-process oracle: the
relative order of two same-instant arrivals no longer depends on the global
scheduling counter (unknowable across process boundaries), only on which
wire each packet came in on.  Storing plain tuples (rather than comparable
event objects) keeps every heap comparison in C, which matters because heap
maintenance dominates the kernel's cost at scale.

A *stream* (:meth:`EventQueue.push_streams`) is a schedule known before the
run -- the packet arrivals of a bare-switch scenario, k time-ordered sources,
one per workload -- held outside the heap.  Pushing N arrivals one by one
makes every later ``heappop`` sift through log2(N) levels although only the
earliest arrival can be the next event; a stream keeps that one arrival in
the heap, under a single *cursor* callable, and the cursor pushes the next
arrival the moment it fires one.  It finds that arrival by merging its
sources on the fly, in a private heap of one entry per source that has
started (sources not started yet wait in a sorted list, so the merge is only
as deep as the sources that overlap in time), and reads each source only as
far as the run has reached: memory is O(k), not O(N), when the sources are
lazy schedules (:class:`repro.workloads.burst.PacketSchedule`).  The
dispatch order is that of N ``push_callback`` calls, source after source,
because each arrival still enters the heap under the sequence number it
would have drawn then: the numbers are reserved up front, in source order,
so they are smaller than any number issued during the run (an arrival
precedes a same-instant event scheduled later, as before), they order
same-instant arrivals of two sources by which source came first, and the
merge compares ``(time, seq)``, the heap's own comparator.  The next arrival
is in the heap before the current one's work runs, hence before anything can
pop.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import (Any, Callable, Collection, Iterator, List, Optional,
                    Sequence, Tuple)

#: One arrival of a stream: ``(time, size, port)``.
Arrival = Tuple[float, int, int]
#: A stream arrival inside the merge: ``(time, seq, size, port, source)``.
_Entry = Tuple[float, int, int, int, int]


class Event:
    """A single scheduled event.

    Attributes:
        time: absolute simulation time (seconds) at which the event fires.
        seq: monotonically increasing tie-breaker.
        callback: zero-argument callable invoked when the event fires.
        cancelled: events are cancelled lazily; the queue skips them on pop.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], Any]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A binary-heap event queue with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._streams: List[_StreamCursor] = []

    def __len__(self) -> int:
        # A stream's unfed arrivals are pending events like any other.
        return len(self._heap) + sum(stream.left for stream in self._streams)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return its Event.

        Raises:
            ValueError: if ``time`` is NaN.  NaN compares false against
                everything, so letting one in would silently corrupt the
                heap ordering for every later event.
        """
        if time != time:  # fast NaN check without math.isnan
            raise ValueError("cannot schedule an event at time NaN")
        event = Event(time, next(self._counter), callback)
        heapq.heappush(self._heap, (time, 0, event.seq, event))
        return event

    def push_callback(self, time: float, callback: Callable[[], Any],
                      priority: int = 0) -> None:
        """Schedule a *non-cancellable* callback at absolute ``time``.

        The hot scheduling path: no :class:`Event` wrapper is allocated, the
        bare callable sits in the heap entry.  Use :meth:`push` whenever the
        caller may need to cancel.  ``priority`` is the same-timestamp band
        (0 for ordinary events; links pass their fabric-wide priority).
        """
        if time != time:  # fast NaN check without math.isnan
            raise ValueError("cannot schedule an event at time NaN")
        heapq.heappush(self._heap,
                       (time, priority, next(self._counter), callback))

    def push_stream(self, arrivals: Collection[Arrival],
                    receive: Callable[[Any, int], Any],
                    make_packet: Callable[[int], Any]) -> None:
        """:meth:`push_streams` of the one source ``arrivals``."""
        self.push_streams((arrivals,), receive, make_packet)

    def push_streams(self, sources: Sequence[Collection[Arrival]],
                     receive: Callable[[Any, int], Any],
                     make_packet: Callable[[int], Any]) -> None:
        """Schedule ``receive(make_packet(size), port)`` at ``time`` for every
        ``(time, size, port)`` of every source.

        Equivalent to one :meth:`push_callback` per arrival, source after
        source in ``sources`` order -- same sequence numbers, same dispatch
        order -- but one cursor entry in the heap stands for all of them, it
        reads each source only as far as the run has reached, and each
        packet is built when it fires (see the module docstring).  A source
        is a sized iterable of arrivals.  A ``list`` is checked for NaN
        times and, when out of time order, sorted once, stably -- the only
        copy this method takes; any other source (a lazy
        :class:`~repro.workloads.burst.PacketSchedule`) must iterate in time
        order.  The stream's own memory is O(len(sources)), whatever the
        number of arrivals.  Like any non-cancellable callback an arrival
        cannot be withdrawn on its own; :meth:`clear` drops the rest.

        Raises:
            ValueError: if a list holds a NaN time; nothing is scheduled then.
        """
        in_order = [True] * len(sources)
        for index, source in enumerate(sources):
            if not isinstance(source, list):
                continue
            previous = -math.inf
            for arrival in source:
                time = arrival[0]
                if time != time:  # fast NaN check without math.isnan
                    raise ValueError("cannot schedule an event at time NaN")
                if time < previous:
                    in_order[index] = False
                previous = time
        counter = self._counter
        readers: List[Iterator[_Entry]] = []
        heads: List[_Entry] = []
        left = 0
        for source, ordered in zip(sources, in_order):
            count = len(source)
            if not count:
                continue
            # Reserve the source's ``count`` numbers, as ``count`` pushes
            # would draw them; arrival i of the source gets ``first + i``.
            first = next(counter)
            if count > 1:
                next(itertools.islice(counter, count - 2, None))
            entries = _entries(source, first, len(readers))
            if not ordered:
                # (time, seq) is the heap's comparator and seq is unique, so
                # this is the order the heap would have produced, ties
                # included.
                entries = iter(sorted(entries))
            readers.append(entries)
            heads.append(next(entries))
            left += count
        if not heads:
            return
        # Sources wait outside the merge until their first arrival is next:
        # descending, the earliest to start is a ``list.pop()`` away.
        heads.sort(reverse=True)
        first_entry = heads.pop()
        cursor = _StreamCursor(self._heap, [first_entry], heads, readers,
                               receive, make_packet, left - 1)
        self._streams.append(cursor)
        heapq.heappush(self._heap, (first_entry[0], 0, first_entry[1], cursor))

    def pop_entry(self) -> Optional[Tuple[float, int, int, Any]]:
        """Pop the earliest live entry ``(time, priority, seq, event_or_cb)``.

        Cancelled events are skipped.  The last element is either an
        :class:`Event` (whose ``callback`` must be invoked) or a bare
        callable pushed by :meth:`push_callback` -- or a stream's cursor,
        which queues the stream's next arrival when called.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            obj = entry[3]
            if obj.__class__ is Event and obj.cancelled:
                continue
            return entry
        return None

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` when empty.

        Bare callbacks scheduled with :meth:`push_callback` are returned
        wrapped in a fresh :class:`Event` so the public API stays uniform.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        obj = entry[3]
        if obj.__class__ is Event:
            return obj
        return Event(entry[0], entry[2], obj)

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest pending event, if any."""
        heap = self._heap
        while heap:
            obj = heap[0][3]
            if obj.__class__ is Event and obj.cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def clear(self) -> None:
        """Drop all pending events, unfed stream arrivals included."""
        self._heap.clear()
        self._streams.clear()


def _entries(source: Collection[Arrival], first: int,
             key: int) -> Iterator[_Entry]:
    """The merge entries of ``source``: arrival i numbered ``first + i``."""
    for seq, (time, size, port) in enumerate(source, first):
        yield time, seq, size, port, key


class _StreamCursor:
    """The one heap-resident callable of a :meth:`EventQueue.push_streams`.

    ``merge`` is a heap of one ``(time, seq, size, port, source)`` entry per
    started source -- its next arrival -- whose least entry is the arrival
    in the event heap; ``waiting`` holds the first entries of the sources
    not started yet, in descending order.  The merge stays as small as the
    number of sources whose arrivals overlap in time.

    Attributes:
        left: arrivals not yet in the event heap.
    """

    __slots__ = ("_heap", "_merge", "_waiting", "_readers", "_receive",
                 "_make_packet", "left")

    def __init__(self, heap: List[Tuple[float, int, int, Any]],
                 merge: List[_Entry], waiting: List[_Entry],
                 readers: List[Iterator[_Entry]],
                 receive: Callable[[Any, int], Any],
                 make_packet: Callable[[int], Any], left: int) -> None:
        self._heap = heap
        self._merge = merge
        self._waiting = waiting
        self._readers = readers
        self._receive = receive
        self._make_packet = make_packet
        self.left = left

    def __call__(self) -> None:
        merge = self._merge
        _time, _seq, size, port, source = merge[0]
        following = next(self._readers[source], None)
        if following is None:
            heapq.heappop(merge)
        else:
            heapq.heapreplace(merge, following)
        waiting = self._waiting
        if waiting and (not merge or waiting[-1] < merge[0]):
            heapq.heappush(merge, waiting.pop())
        if merge:
            # Feed before firing: whatever this arrival's work sees of the
            # queue, or raises, the next arrival is already in its place.
            head = merge[0]
            self.left -= 1
            heapq.heappush(self._heap, (head[0], 0, head[1], self))
        self._receive(self._make_packet(size), port)
