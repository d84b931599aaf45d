"""``repro.perf``: the perf cases and the two gates built on them.

A perf case is a scenario document in ``repro/perf/cases/``, named by its
file stem; each runs in well under a second.  Together they cover every hot
path of the simulation core:

* ``incast_single_switch`` -- the DPDK-testbed shape (fig13): DCTCP incast
  queries + web-search background through one shared-memory switch
  (admission, scheduling, transport, host NICs);
* ``websearch_leaf_spine`` -- the ns-3 fabric shape (fig17): multi-switch
  forwarding with ECMP routing across the spines;
* ``websearch_leaf_spine_telemetry`` -- the same fabric with the sampling
  bus at default cadence; its cost over ``websearch_leaf_spine`` is the
  telemetry overhead (CI gates it at 5% with ``overhead``);
* ``websearch_fat_tree`` -- the multi-stage fabric shape: a k=4 fat-tree
  with two ECMP stages and 4-5 switch hops per inter-pod flow;
* ``websearch_fattree_k8`` -- the sharding shape: a k=8 fat-tree (80
  switches, 8 pods) with pod-local parallelism to cut;
* ``websearch_fattree_degraded`` -- the asymmetric-fabric shape: the k=4
  fat-tree with a failed agg<->core link (routing prune + exclusion sets)
  and a half-rate edge<->agg uplink (capacity-weighted ECMP, per-link
  serialization rates);
* ``websearch_fattree_flowlet`` -- the degraded fat-tree under flowlet
  switching: every multi-uplink hop takes the ``repro.lb`` delegate path
  (candidate memoization, flowlet table, least-backlog re-pick);
* ``dumbbell_burst`` -- Occamy on a dumbbell: steady cross traffic keeps
  the bottleneck busy while a synchronized burst exercises expulsion;
* ``raw_switch_stream`` -- the P4-prototype shape (fig11): a 100 Gbps
  stream plus a burst on a bare switch, packet-level, with queue tracing
  on (the pure switch pipeline, no transport).

The gates take :class:`~repro.scenario.spec.ScenarioSpec` objects:

* :mod:`repro.perf.differential` -- ``differential``: a spec run under the
  heap oracle and under a candidate engine configuration, result documents
  byte-diffed;
* :mod:`repro.perf.harness` -- ``overhead``: an interleaved A/B of two
  specs, gated on the median per-pair wall-time ratio.

Run them with ``python -m repro.perf list|differential|overhead``; every
case argument is a case id or a path to any scenario document.  Speed
claims are measured with the repo benchmark (``python3 bench/run.py``),
not here.
"""

from pathlib import Path
from typing import List

from repro.perf.harness import measure_overhead
from repro.scenario.spec import ScenarioSpec

CASES_DIR = Path(__file__).with_name("cases")


def case_names() -> List[str]:
    """The ids of the bundled case documents, sorted."""
    return sorted(path.stem for path in CASES_DIR.glob("*.json"))


def load_case(name_or_path: str) -> ScenarioSpec:
    """Parse a case document, named by case id or by path."""
    path = CASES_DIR / f"{name_or_path}.json"
    if not path.is_file():
        path = Path(name_or_path)
        if not path.is_file():
            raise KeyError(f"unknown perf case {name_or_path!r}; "
                           f"available: {', '.join(case_names())}")
    return ScenarioSpec.from_file(path)


__all__ = ["CASES_DIR", "case_names", "load_case", "measure_overhead"]
