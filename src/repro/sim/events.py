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
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


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

    def __len__(self) -> int:
        return len(self._heap)

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

    def pop_entry(self) -> Optional[Tuple[float, int, int, Any]]:
        """Pop the earliest live entry ``(time, priority, seq, event_or_cb)``.

        Cancelled events are skipped.  The last element is either an
        :class:`Event` (whose ``callback`` must be invoked) or a bare
        callable pushed by :meth:`push_callback`.
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
        """Drop all pending events."""
        self._heap.clear()
