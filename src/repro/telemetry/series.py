"""Time-series containers for the telemetry bus and the figure harnesses.

Two shapes live here:

* :class:`RingSeries` -- the fixed-capacity ring buffer the sampling bus
  (:mod:`repro.telemetry.bus`) pushes cadence samples into.  Capacity is
  fixed at construction, so an arbitrarily long run costs bounded memory;
  once full, new samples overwrite the oldest (the ring keeps the newest
  window).
* :class:`QueueLengthSeries` / :func:`trace_to_series` -- the per-event
  queue-length series extracted from switch traces (Figures 3 and 11),
  so the figure harnesses and the bus share one series module.

:func:`select_series` / :func:`write_csv` turn a bus document (``time`` +
``series``) into time-series CSV for fig11's ``--csv`` and
``python -m repro.analysis qlen``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, TextIO,
                    Tuple, Union)

from repro.switchsim.stats import QueueTraceSample

Number = Union[int, float]


class RingSeries:
    """A fixed-capacity ring buffer of numeric samples.

    Example:
        >>> ring = RingSeries(capacity=3)
        >>> for v in (1, 2, 3, 4):
        ...     ring.push(v)
        >>> ring.values()
        [2, 3, 4]
        >>> ring.pushed, ring.dropped
        (4, 1)
    """

    __slots__ = ("capacity", "pushed", "_slots")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        #: Total samples ever pushed (including overwritten ones).
        self.pushed = 0
        self._slots: List[Number] = [0] * capacity

    def push(self, value: Number) -> None:
        self._slots[self.pushed % self.capacity] = value
        self.pushed += 1

    def __len__(self) -> int:
        return min(self.pushed, self.capacity)

    @property
    def wrapped(self) -> bool:
        """True once at least one sample has been overwritten."""
        return self.pushed > self.capacity

    @property
    def dropped(self) -> int:
        """Samples overwritten by wraparound (oldest-first)."""
        return max(0, self.pushed - self.capacity)

    def last(self) -> Number:
        """The newest sample (0 when empty)."""
        if self.pushed == 0:
            return 0
        return self._slots[(self.pushed - 1) % self.capacity]

    def values(self) -> List[Number]:
        """Retained samples in chronological (oldest-to-newest) order."""
        if self.pushed <= self.capacity:
            return self._slots[: self.pushed]
        head = self.pushed % self.capacity
        return self._slots[head:] + self._slots[:head]


@dataclass
class QueueLengthSeries:
    """A per-queue time series of (time, length, threshold) samples."""

    queue_id: int
    times: List[float] = field(default_factory=list)
    lengths: List[int] = field(default_factory=list)
    thresholds: List[float] = field(default_factory=list)

    def append(self, time: float, length: int, threshold: float) -> None:
        self.times.append(time)
        self.lengths.append(length)
        self.thresholds.append(threshold)

    @property
    def max_length(self) -> int:
        return max(self.lengths) if self.lengths else 0

    def length_at(self, time: float) -> int:
        """Queue length at (or just before) ``time`` (step interpolation)."""
        result = 0
        for t, length in zip(self.times, self.lengths, strict=True):
            if t > time:
                break
            result = length
        return result

    def sample_every(self, interval: float) -> List[Tuple[float, int]]:
        """Down-sample the series onto a regular grid for compact reporting."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not self.times:
            return []
        points = []
        t = self.times[0]
        end = self.times[-1]
        while t <= end:
            points.append((t, self.length_at(t)))
            t += interval
        return points


def trace_to_series(trace: Iterable[QueueTraceSample]) -> Dict[int, QueueLengthSeries]:
    """Group a flat switch trace into per-queue series."""
    series: Dict[int, QueueLengthSeries] = {}
    for sample in trace:
        per_queue = series.setdefault(sample.queue_id, QueueLengthSeries(sample.queue_id))
        per_queue.append(sample.time, sample.length_bytes, sample.threshold_bytes)
    return series


def select_series(telemetry: Mapping, patterns: Optional[Sequence[str]] = None
                  ) -> List[str]:
    """Series names matching any of the glob ``patterns`` (all when empty)."""
    names = sorted(telemetry.get("series", {}))
    if not patterns:
        return names
    selected = [name for name in names
                if any(fnmatch(name, pattern) for pattern in patterns)]
    if not selected:
        raise ValueError(
            f"no series match {list(patterns)!r}; available: "
            + ", ".join(names))
    return selected


def write_csv(telemetry: Mapping, stream: TextIO,
              patterns: Optional[Sequence[str]] = None) -> List[str]:
    """Write ``time`` + selected series as CSV columns; returns the names."""
    names = select_series(telemetry, patterns)
    series = telemetry["series"]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["time"] + names)
    for index, t in enumerate(telemetry["time"]):
        writer.writerow([t] + [series[name][index] for name in names])
    return names
