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

A *stream* (:meth:`EventQueue.push_stream`) is a schedule known in full
before the run -- the packet arrivals of a bare-switch scenario -- held
outside the heap.  Pushing N arrivals one by one makes every later
``heappop`` sift through log2(N) levels although only the earliest arrival
can be the next event; a stream keeps that one arrival in the heap, under a
single *cursor* callable, and the cursor pushes arrival ``i + 1`` the moment
it fires arrival ``i``.  The dispatch order is that of N ``push_callback``
calls because each arrival still enters the heap under the sequence number
it would have drawn then: the numbers are reserved up front, so they are
smaller than any number issued during the run (an arrival precedes a
same-instant event scheduled later, as before), they order two streams'
same-instant arrivals by which stream was pushed first, and sorting by
``(time, seq)`` is the heap's own comparator applied ahead of time.  Arrival
``i + 1`` is in the heap before arrival ``i``'s work runs, hence before
anything can pop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple


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

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{state}>"


class EventQueue:
    """A binary-heap event queue with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._streams: List[_StreamCursor] = []

    def __len__(self) -> int:
        # A stream's unfed arrivals are pending events like any other.
        return len(self._heap) + sum(
            len(stream.unfed) for stream in self._streams)

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

    def push_stream(self, arrivals: Sequence[Tuple[float, int, int]],
                    receive: Callable[[Any, int], Any],
                    make_packet: Callable[[int], Any]) -> None:
        """Schedule ``receive(make_packet(size), port)`` at ``time`` for every
        ``(time, size, port)`` of ``arrivals``.

        Equivalent to one :meth:`push_callback` per arrival, in ``arrivals``
        order -- same sequence numbers, same dispatch order -- but only the
        earliest unfired arrival occupies the heap (see the module
        docstring), and its packet is built when it fires.  Like any
        non-cancellable callback an arrival cannot be withdrawn on its own;
        :meth:`clear` drops the rest.

        Raises:
            ValueError: if any ``time`` is NaN; nothing is scheduled then.
        """
        for arrival in arrivals:
            if arrival[0] != arrival[0]:  # fast NaN check without math.isnan
                raise ValueError("cannot schedule an event at time NaN")
        if not arrivals:
            return
        counter = self._counter
        # (time, seq) is the heap's comparator and seq is unique, so this is
        # the order the heap would have produced, ties included.  Descending,
        # the earliest unfed arrival is a ``list.pop()`` away.
        unfed = sorted(((time, next(counter), size, port)
                        for time, size, port in arrivals), reverse=True)
        time, seq, size, port = unfed.pop()
        cursor = _StreamCursor(self._heap, unfed, receive, make_packet,
                               size, port)
        self._streams.append(cursor)
        heapq.heappush(self._heap, (time, 0, seq, cursor))

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


class _StreamCursor:
    """The one heap-resident callable of a :meth:`EventQueue.push_stream`.

    Attributes:
        unfed: arrivals not yet in the heap, as ``(time, seq, size, port)``
            in *descending* order; the arrival whose entry is in the heap is
            not among them (it waits in ``_size`` / ``_port``).
    """

    __slots__ = ("_heap", "unfed", "_receive", "_make_packet", "_size", "_port")

    def __init__(self, heap: List[Tuple[float, int, int, Any]],
                 unfed: List[Tuple[float, int, int, int]],
                 receive: Callable[[Any, int], Any],
                 make_packet: Callable[[int], Any],
                 size: int, port: int) -> None:
        self._heap = heap
        self.unfed = unfed
        self._receive = receive
        self._make_packet = make_packet
        self._size = size
        self._port = port

    def __call__(self) -> None:
        size = self._size
        port = self._port
        unfed = self.unfed
        if unfed:
            # Feed before firing: whatever this arrival's work sees of the
            # queue, or raises, the next arrival is already in its place.
            time, seq, self._size, self._port = unfed.pop()
            heapq.heappush(self._heap, (time, 0, seq, self))
        self._receive(self._make_packet(size), port)
