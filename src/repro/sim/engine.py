"""The discrete-event simulator driving both the switch and network models."""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim.events import Event
from repro.sim.kernel import HeapKernel, SimKernel


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    The simulator owns a virtual clock (``now``, in seconds) and a pluggable
    :class:`~repro.sim.kernel.SimKernel` holding the event queue and the
    dispatch loop.  Components schedule callbacks either at an absolute time
    (:meth:`at`) or after a delay (:meth:`schedule`), then :meth:`run` drains
    the queue until a time horizon or until no events remain.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [1.5]
    """

    def __init__(self, kernel: Optional[SimKernel] = None) -> None:
        self.now: float = 0.0
        #: The engine kernel: event storage + dispatch loop.
        self._kernel = kernel if kernel is not None else HeapKernel()
        #: Back-compat alias -- a SimKernel *is* an EventQueue, and the
        #: inlined hot paths (schedule_fast below, Link.transmit) reach the
        #: heap through ``sim._queue._heap`` / ``._counter``.
        self._queue = self._kernel
        self._running = False
        self._stopped = False
        #: Cumulative count of events executed over the simulator's lifetime
        #: (across multiple :meth:`run` calls).  The dispatch loop keeps it
        #: current per event, so a callback -- the telemetry tick -- reads
        #: the number fired so far.
        self.events_executed: int = 0

    @property
    def kernel(self) -> SimKernel:
        """The engine kernel."""
        return self._kernel

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Raises:
            ValueError: if ``delay`` is negative or NaN.
        """
        if delay < 0:
            raise ValueError(
                f"cannot schedule into the past: delay={delay} (now={self.now})"
            )
        time = self.now + delay
        if time != time:  # NaN slips past the < 0 guard (comparisons false)
            raise ValueError("cannot schedule an event at time NaN")
        return self._queue.push(time, callback)

    def schedule_fast(self, delay: float, callback: Callable[[], Any]) -> None:
        """Schedule a *non-cancellable* callback ``delay`` seconds from now.

        The hot-path variant of :meth:`schedule`: no :class:`Event` object is
        allocated, so the callback cannot be cancelled.  The simulation inner
        loops (port/NIC serialization completions, link arrivals) use it; use
        :meth:`schedule` whenever a handle is needed.
        """
        if delay < 0:
            raise ValueError(
                f"cannot schedule into the past: delay={delay} (now={self.now})"
            )
        time = self.now + delay
        if time != time:  # fast NaN check without math.isnan
            raise ValueError("cannot schedule an event at time NaN")
        # Inlined EventQueue.push_callback: this is the single hottest
        # scheduling call in the simulator, worth one fewer frame.
        # NOTE: Link.transmit (repro.netsim.link) inlines this body once
        # more (measured ~5% of its per-packet cost) -- keep the heap entry
        # shape (time, priority, counter, callback) in sync with it.
        queue = self._queue
        heappush(queue._heap, (time, 0, next(queue._counter), callback))

    def at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``.

        Raises:
            ValueError: if ``time`` lies before the current clock or is NaN.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: time={time} (now={self.now})"
            )
        if time != time:  # NaN slips past the < guard (comparisons false)
            raise ValueError("cannot schedule an event at time NaN")
        return self._queue.push(time, callback)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (no-op for ``None``)."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Args:
            until: stop once the clock would pass this time (the clock is
                advanced to ``until`` if events remain beyond it).
            max_events: optional safety cap on the number of executed events.

        Returns:
            The number of events executed.
        """
        # One extra frame per run() call (not per event): the loop itself
        # lives in the kernel so it can be swapped wholesale.
        return self._kernel.run_loop(self, until, max_events)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including lazily cancelled ones
        and the arrivals a stream has yet to feed into the heap)."""
        return len(self._queue)

    def reset(self) -> None:
        """Return the simulator to its just-constructed state.

        Clears the event queue, rewinds the clock and zeroes the lifetime
        event counter.
        """
        self._queue.clear()
        self.now = 0.0
        self._stopped = False
        self.events_executed = 0
