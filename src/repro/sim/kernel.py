"""The simulation kernel: the pending-event heap and the dispatch loop.

A :class:`SimKernel` owns what the inner loop of the discrete-event
simulator touches: the pending-event heap (it *is* an
:class:`~repro.sim.events.EventQueue`, so the ``(time, priority, seq,
obj)`` entry shape and the inlined hot paths in :meth:`Simulator.schedule_fast
<repro.sim.engine.Simulator.schedule_fast>` and ``Link.transmit`` reach it
directly) and the dispatch loop, :meth:`~SimKernel.run_loop`.

One kernel ships: :class:`HeapKernel`, a pure-Python tuple heap drained by
a single loop.  Every golden figure, frozen hash and determinism battery
pins it, and ``python -m repro.perf differential`` judges every other
engine configuration (a sharded run, a registered kernel) against it.

The seam stays because things plug in behind it: the sharded executor
builds its per-shard simulators through :func:`make_kernel`, tests
register instrumented kernels, and a further :class:`SimKernel` (a
checked loop, a C inner loop) registered with :func:`register_kernel`
becomes selectable through the scenario ``engine`` section, ``--kernel``
CLI flags and campaign axes for free.  The seam carries dispatch only:
what a packet or descriptor costs to allocate is not the kernel's
business.

``"pooled"`` is a compatibility alias of ``"heap"``, not a second engine.
It once named a kernel that recycled events, packets and descriptors
through free lists and stopped paying for itself; stored campaign entries,
pinned benchmark documents and frozen spec hashes still carry
``engine.kernel: "pooled"``, so the name validates, is echoed verbatim by
``to_dict`` and runs :class:`HeapKernel`.  It selects nothing.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Type

from repro.registry import Registry
from repro.sim.events import Event, EventQueue


class SimKernel(EventQueue):
    """The engine seam: event storage + dispatch loop.

    Subclasses inherit the :class:`~repro.sim.events.EventQueue` storage
    contract (``push`` / ``push_callback`` / ``push_streams`` / ``pop_entry``
    over a ``(time, priority, seq, event_or_callback)`` tuple heap) and add
    the dispatch loop.  The loop receives the owning
    :class:`~repro.sim.engine.Simulator` and drives its public clock/flags
    (``now``, ``_stopped``, ``_running``, ``events_executed``), so kernels
    are swappable without touching any component code.

    Attributes:
        name: registry name of the kernel (``heap``, ...).
    """

    name = "abstract"

    def run_loop(self, sim, until: Optional[float] = None,
                 max_events: Optional[int] = None) -> int:
        """Drain the queue, advancing ``sim``; returns events executed.

        ``sim.events_executed`` must be current whenever a callback runs
        (the telemetry bus samples it mid-run).
        """
        raise NotImplementedError


class HeapKernel(SimKernel):
    """The pure-Python tuple-heap kernel (the differential-testing oracle).

    Same heap, same FIFO tie-break, same lazy cancellation and same
    equal-timestamp ordering as every golden was recorded with.
    """

    name = "heap"

    def run_loop(self, sim, until: Optional[float] = None,
                 max_events: Optional[int] = None) -> int:
        # The pop and the lazy-cancel skip of EventQueue.pop_entry are
        # inlined: one frame per event is the single largest avoidable cost
        # at this level.  ``executed`` stays a local for the ``max_events``
        # test and the return value, and is stored to the simulator once per
        # event, so any callback reads a live ``events_executed``.
        executed = 0
        base = sim.events_executed
        sim._stopped = False
        sim._running = True
        heap = self._heap
        event_cls = Event
        try:
            while not sim._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if not heap:
                    # Queue drained: advance the clock to the horizon.
                    if until is not None and sim.now < until:
                        sim.now = until
                    break
                entry = heappop(heap)
                obj = entry[3]
                if obj.__class__ is event_cls:
                    if obj.cancelled:
                        # Consumed wherever it sits, beyond the horizon too.
                        continue
                    obj = obj.callback
                event_time = entry[0]
                if until is not None and event_time > until:
                    # Beyond the horizon: back it goes with its original
                    # (time, priority, seq), ahead of anything pushed later
                    # at the same instant; the clock stops at the horizon.
                    heappush(heap, entry)
                    sim.now = until
                    break
                sim.now = event_time
                obj()
                executed += 1
                sim.events_executed = base + executed
        finally:
            sim._running = False
        return executed


KERNELS: Registry[Type[SimKernel]] = Registry("kernel")

register_kernel = KERNELS.register
make_kernel = KERNELS.make
available_kernels = KERNELS.names

register_kernel("heap", HeapKernel)
# Compatibility alias (see the module docstring): selects nothing.
register_kernel("pooled", HeapKernel)
