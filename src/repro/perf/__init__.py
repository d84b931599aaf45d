"""``repro.perf``: the perf cases and the two gates built on them.

* :mod:`repro.perf.cases` -- a registry of :class:`PerfCase` entries, each
  wrapping a representative :class:`~repro.scenario.spec.ScenarioSpec`
  (single-switch incast, leaf-spine and fat-tree web-search, dumbbell
  burst, packet-level raw switch);
* :mod:`repro.perf.differential` -- ``differential``: every case run under
  the heap oracle and under a candidate engine configuration, result
  documents byte-diffed;
* :mod:`repro.perf.harness` -- ``overhead``: an interleaved A/B of two
  cases, gated on the median per-pair wall-time ratio.

Run it with ``python -m repro.perf list|differential|overhead``.  Speed
claims are measured with the repo benchmark (``python3 bench/run.py``),
not here.
"""

from repro.perf.cases import (
    PerfCase,
    available_cases,
    get_case,
    register_case,
    unregister_case,
)
from repro.perf.harness import measure_overhead

__all__ = [
    "PerfCase",
    "available_cases",
    "get_case",
    "measure_overhead",
    "register_case",
    "unregister_case",
]
