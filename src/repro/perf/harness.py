"""Interleaved A/B wall-time measurement of two specs: the ``overhead`` gate.

``python -m repro.perf overhead BASE VARIANT --fail-above PCT`` answers one
question -- does the variant cost more than ``PCT`` percent over the base,
on this machine, now -- and CI uses it to hold the telemetry bus to its
5% budget.  It is a gate, not a benchmark: speed claims are measured with
``python3 bench/run.py``.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import List

from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import ScenarioSpec


def _execute_once(spec: ScenarioSpec) -> float:
    """One timed run of ``spec``; returns its wall seconds."""
    runner = ScenarioRunner()
    start = time.perf_counter()
    runner.run(spec)
    return time.perf_counter() - start


@dataclass
class OverheadMeasurement:
    """An interleaved A/B comparison of two specs (same-session, same-process).

    Container timing noise between sessions easily exceeds 10%, and even
    within one process the clock frequency drifts several percent over tens
    of seconds -- too much for a small overhead bound (telemetry's 5% gate)
    to be judged from independent min-over-reps estimates.  The drift is
    *slow*, though, so a base run and a variant run executed back-to-back
    see the same machine state: each repetition is such a pair, and the
    estimator is the **median of per-pair wall-time ratios**, immune to any
    single pair catching an interference spike.
    """

    base_repetitions: List[float] = field(default_factory=list)
    variant_repetitions: List[float] = field(default_factory=list)

    @property
    def base_wall_s(self) -> float:
        return min(self.base_repetitions)

    @property
    def variant_wall_s(self) -> float:
        return min(self.variant_repetitions)

    @property
    def pair_ratios(self) -> List[float]:
        """Per-pair variant/base wall-time ratios (rep *i* of each side)."""
        return [v / b for b, v in
                zip(self.base_repetitions, self.variant_repetitions,
                    strict=True)]

    @property
    def overhead_pct(self) -> float:
        """Variant cost relative to base: median pair ratio, in percent."""
        return (statistics.median(self.pair_ratios) - 1.0) * 100.0


def measure_overhead(base: ScenarioSpec, variant: ScenarioSpec,
                     warmup: int = 1,
                     repetitions: int = 7) -> OverheadMeasurement:
    """Measure ``variant``'s wall-time overhead over ``base``, interleaved.

    Each repetition runs one base + one variant execution back-to-back,
    alternating which goes first so slow drift (CPU frequency, co-tenant
    load) cannot systematically favor one side, with a garbage collection
    before each timed run so collector pauses land between measurements.
    The overhead estimate is the median of per-pair ratios (see
    :class:`OverheadMeasurement`).
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    for _ in range(warmup):
        _execute_once(base)
        _execute_once(variant)
    measurement = OverheadMeasurement()
    for rep in range(repetitions):
        pair = ((base, measurement.base_repetitions),
                (variant, measurement.variant_repetitions))
        if rep % 2:
            pair = (pair[1], pair[0])
        for spec, times in pair:
            gc.collect()
            times.append(_execute_once(spec))
    return measurement
