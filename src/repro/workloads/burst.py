"""Raw packet-arrival patterns for traffic-manager-level experiments.

The P4 prototype experiments (Figures 11-12) drive the switch directly with a
long-lived flow plus a short burst.  Each pattern is a :class:`PacketSchedule`:
evenly spaced packets held as start, gap, size, port and an exact length, and
generated only as they are read, so a schedule of a million packets costs the
same memory as one of ten.  :func:`constant_rate_arrivals` and
:func:`burst_arrivals` are the same patterns as ``(time, size_bytes)`` lists
that can be fed straight into
:meth:`repro.switchsim.switch.SharedMemorySwitch.receive`.
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat
from typing import Iterator, List, Optional, Tuple

from repro.sim.units import transmission_time

Arrival = Tuple[float, int]


def _check(name: str, value: float) -> None:
    # ``not value > 0`` also catches NaN; an infinite rate, duration or size
    # would make the spacing loop never end.
    if not value > 0 or math.isinf(value):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _spaced(start: float, gap: float, end: float) -> Iterator[float]:
    """``start``, ``start + gap``, ... below ``end``, accumulated one gap at
    a time (the float sums every recorded schedule was built with)."""
    t = start
    while t < end:
        yield t
        t += gap


class PacketSchedule:
    """A time-ordered ``(time, size, port)`` schedule generated as it is read.

    Packets of ``size`` bytes every ``gap`` seconds from ``start`` -- below
    ``end`` when that is finite, else ``count`` of them -- the last one
    ``last_size`` bytes.  ``len()`` is exact; iterating twice yields the
    same arrivals twice.
    """

    __slots__ = ("start", "gap", "end", "size", "last_size", "port", "_count")

    def __init__(self, start: float, gap: float, size: int, port: int,
                 end: float = math.inf, count: Optional[int] = None,
                 last_size: Optional[int] = None) -> None:
        self.start = start
        self.gap = gap
        self.end = end
        self.size = size
        self.last_size = size if last_size is None else last_size
        self.port = port
        self._count = count

    def __len__(self) -> int:
        if self._count is None:
            # Counted, not computed: ``len(range(...))`` of a quotient can be
            # one off the accumulated sums near ``end``.
            self._count = sum(1 for _ in _spaced(self.start, self.gap, self.end))
        return self._count

    def __iter__(self) -> Iterator[Tuple[float, int, int]]:
        count = len(self)
        sizes = chain(repeat(self.size, count - 1), (self.last_size,)) \
            if count else ()
        return zip(islice(_spaced(self.start, self.gap, self.end), count),
                   sizes, repeat(self.port))


def constant_rate_schedule(rate_bps: float, duration: float,
                           packet_bytes: int = 1500, start_time: float = 0.0,
                           port: int = 0) -> PacketSchedule:
    """Back-to-back packets at ``rate_bps`` for ``duration`` seconds."""
    _check("rate_bps", rate_bps)
    _check("duration", duration)
    _check("packet_bytes", packet_bytes)
    if not math.isfinite(start_time):
        raise ValueError(f"start_time must be finite, got {start_time!r}")
    return PacketSchedule(start_time, transmission_time(packet_bytes, rate_bps),
                          packet_bytes, port, end=start_time + duration)


def burst_schedule(burst_bytes: int, rate_bps: float, packet_bytes: int = 1500,
                   start_time: float = 0.0, port: int = 0) -> PacketSchedule:
    """A burst of ``burst_bytes`` sent back-to-back at ``rate_bps``; the last
    packet carries the remainder."""
    _check("burst_bytes", burst_bytes)
    _check("rate_bps", rate_bps)
    _check("packet_bytes", packet_bytes)
    if not math.isfinite(start_time):
        raise ValueError(f"start_time must be finite, got {start_time!r}")
    count = int(-(-burst_bytes // packet_bytes))
    return PacketSchedule(start_time, transmission_time(packet_bytes, rate_bps),
                          packet_bytes, port, count=count,
                          last_size=burst_bytes - (count - 1) * packet_bytes)


def constant_rate_arrivals(rate_bps: float, duration: float, packet_bytes: int = 1500,
                           start_time: float = 0.0) -> List[Arrival]:
    """:func:`constant_rate_schedule` as a ``(time, size_bytes)`` list."""
    return [(t, size) for t, size, _ in constant_rate_schedule(
        rate_bps, duration, packet_bytes, start_time)]


def burst_arrivals(burst_bytes: int, rate_bps: float, packet_bytes: int = 1500,
                   start_time: float = 0.0) -> List[Arrival]:
    """:func:`burst_schedule` as a ``(time, size_bytes)`` list."""
    return [(t, size) for t, size, _ in burst_schedule(
        burst_bytes, rate_bps, packet_bytes, start_time)]
