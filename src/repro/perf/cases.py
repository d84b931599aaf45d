"""The registry of benchmark cases.

A :class:`PerfCase` names a representative scenario at a given tier
(``small`` runs in well under a second and feeds the CI tripwire; ``medium``
runs for a few seconds and is the scale optimization work is judged at) and
builds a fresh :class:`~repro.scenario.spec.ScenarioSpec` for every
measurement.  The built-in families cover every hot path of the
simulation core:

* ``incast_single_switch`` -- the DPDK-testbed shape: DCTCP incast queries +
  web-search background through one shared-memory switch (admission,
  scheduling, transport, host NICs);
* ``websearch_leaf_spine`` -- the ns-3 fabric shape: multi-switch forwarding
  with ECMP routing across the spines;
* ``websearch_leaf_spine_telemetry`` -- the same fabric with the sampling
  bus at default cadence (pins the telemetry overhead);
* ``websearch_fat_tree`` -- the multi-stage fabric shape: a k=4 fat-tree
  with two ECMP stages and 4-5 switch hops per inter-pod flow;
* ``websearch_fattree_k8`` -- the sharding shape: a k=8 fat-tree (80
  switches, 8 pods) sized so conservative-parallel execution
  (``engine.shards``) has enough pod-local parallelism to win;
* ``websearch_fattree_degraded`` -- the asymmetric-fabric shape: the same
  fat-tree with a failed agg<->core link and a half-rate edge<->agg uplink
  (failure-pruned routing + capacity-weighted ECMP);
* ``websearch_fattree_ecmp_lb`` -- the fat-tree case with an *explicit*
  ``lb: ecmp`` section: canonically identical to ``websearch_fat_tree``,
  kept separate so ``python -m repro.perf overhead`` can pin the
  load-balancer attach path at zero per-packet cost;
* ``websearch_fattree_flowlet`` -- the degraded fat-tree under flowlet
  switching (the ``repro.lb`` delegate data path: candidate-list
  memoization + flowlet table on every multi-uplink hop);
* ``dumbbell_burst`` -- two switches, cross traffic plus a synchronized
  burst (Occamy's expulsion engine under pressure);
* ``raw_switch_stream`` -- the P4-prototype shape: raw packet arrivals on a
  bare switch with queue tracing on (the pure switch-pipeline path, no
  transport).

Like the scheme/topology/workload registries, third-party cases can be added
with :func:`register_case`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.scenario.builders import (
    fat_tree_scenario,
    leaf_spine_scenario,
    packet_burst_scenario,
    single_switch_scenario,
)
from repro.scenario.scales import get_scale
from repro.scenario.spec import (
    FabricSpec,
    LoadBalancerSpec,
    ScenarioSpec,
    SchemeSpec,
    TelemetrySpec,
    TopologySpec,
    TransportSpec,
    WorkloadSpec,
)
from repro.sim.units import GBPS, KB, MB

#: The two built-in tiers, ordered by cost.
TIERS = ("small", "medium")


@dataclass(frozen=True)
class PerfCase:
    """One benchmark case: a named, tiered scenario builder.

    Attributes:
        name: case family name (e.g. ``incast_single_switch``).
        tier: ``small`` or ``medium``.
        build: zero-argument callable returning a fresh ScenarioSpec.
        description: one line for ``python -m repro.perf list``.
    """

    name: str
    tier: str
    build: Callable[[], ScenarioSpec] = field(compare=False)
    description: str = ""

    @property
    def case_id(self) -> str:
        """The ``family/tier`` identifier used in snapshots."""
        return f"{self.name}/{self.tier}"


_CASES: Dict[str, PerfCase] = {}


def register_case(case: PerfCase, override: bool = False) -> None:
    """Add a case to the registry (``override`` replaces an existing id)."""
    if case.tier not in TIERS:
        raise ValueError(f"unknown tier {case.tier!r}; expected one of {TIERS}")
    if case.case_id in _CASES and not override:
        raise ValueError(f"perf case {case.case_id!r} is already registered")
    _CASES[case.case_id] = case


def unregister_case(case_id: str) -> None:
    del _CASES[case_id]


def get_case(case_id: str) -> PerfCase:
    try:
        return _CASES[case_id]
    except KeyError:
        raise KeyError(
            f"unknown perf case {case_id!r}; "
            f"available: {', '.join(sorted(_CASES))}"
        ) from None


def available_cases(tier: Optional[str] = None) -> List[PerfCase]:
    """All registered cases, optionally restricted to one tier."""
    cases = [case for case in _CASES.values()
             if tier is None or case.tier == tier]
    return sorted(cases, key=lambda c: c.case_id)


def case_with_engine(case: PerfCase, kernel: Optional[str] = None,
                     shards: Optional[int] = None,
                     partition: Optional[str] = None) -> PerfCase:
    """A copy of ``case`` whose built specs run on the given engine config.

    The returned case keeps the same ``case_id`` (snapshots stay
    comparable across engine configurations -- that is the point of
    ``--kernel``/``--shards`` on ``perf run``); only the built spec's
    ``engine`` section differs.  ``None`` fields keep the base case's
    value, so overrides compose instead of clobbering each other.
    """
    base_build = case.build

    def build() -> ScenarioSpec:
        spec = base_build()
        engine = spec.engine
        if kernel is not None:
            engine = replace(engine, kernel=kernel)
        if shards is not None:
            engine = replace(engine, shards=shards)
        if partition is not None:
            engine = replace(engine, partition=partition)
        spec.engine = engine
        return spec

    return PerfCase(name=case.name, tier=case.tier, build=build,
                    description=case.description)


def case_with_kernel(case: PerfCase, kernel: str) -> PerfCase:
    """A copy of ``case`` whose built specs run on ``kernel``."""
    return case_with_engine(case, kernel=kernel)


# ----------------------------------------------------------------------
# Built-in case builders
# ----------------------------------------------------------------------
def _incast_single_switch(tier: str) -> ScenarioSpec:
    # The fig13 shape: incast queries + 50% web-search background.  The
    # medium tier is the experiments' "small" scale (8 hosts, 20 ms).
    config = get_scale("bench" if tier == "small" else "small")
    buffer_bytes = int(config.buffer_kb_per_port_per_gbps * KB
                       * config.num_hosts * config.link_rate_bps / 1e9)
    return single_switch_scenario(
        scheme="dt",
        config=config,
        query_size_bytes=int(0.6 * buffer_bytes),
        background_load=0.5,
        name=f"perf_incast_single_switch_{tier}",
    )


def _websearch_leaf_spine(tier: str) -> ScenarioSpec:
    if tier == "small":
        config = get_scale("bench")
    else:
        # The experiments' "small" fabric (4 leaves x 4 spines x 16 hosts)
        # with a compressed workload window: representative multi-switch ECMP
        # traffic at a runtime that keeps repeated measurement practical.
        config = replace(get_scale("small"), fabric_duration=0.006)
    return leaf_spine_scenario(
        scheme="dt",
        config=config,
        query_size_bytes=int(0.6 * config.fabric_buffer_bytes_per_port * 8),
        background_load=0.6,
        name=f"perf_websearch_leaf_spine_{tier}",
    )


def _websearch_leaf_spine_telemetry(tier: str) -> ScenarioSpec:
    # The leaf-spine case with the telemetry bus sampling at the default
    # cadence: its wall time against `websearch_leaf_spine` is the sampling
    # overhead (CI pins it at <= 5% via `python -m repro.perf overhead`).
    spec = _websearch_leaf_spine(tier)
    spec.name = f"perf_websearch_leaf_spine_telemetry_{tier}"
    spec.telemetry = TelemetrySpec(enabled=True)
    return spec


def _websearch_fat_tree(tier: str) -> ScenarioSpec:
    # The multi-stage fabric shape: paced incast + websearch background on a
    # k=4 fat-tree (20 switches, 4-5 switch hops per inter-pod flow).  The
    # small tier runs the bench fabric (8 hosts) over a compressed window;
    # medium runs the full-bisection fabric (16 hosts) of the small scale.
    if tier == "small":
        config = replace(get_scale("bench"), fabric_duration=0.0015)
    else:
        config = replace(get_scale("small"), fabric_duration=0.004)
    return fat_tree_scenario(
        scheme="dt",
        config=config,
        query_size_bytes=int(0.6 * config.fabric_buffer_bytes_per_port * 8),
        background_load=0.5,
        name=f"perf_websearch_fat_tree_{tier}",
    )


def _websearch_fattree_k8(tier: str) -> ScenarioSpec:
    # The sharding shape: a k=8 fat-tree (80 switches, 8 pods) with enough
    # independent pod-local work that conservative-parallel execution has
    # parallelism to win.  The small tier (32 hosts, compressed window)
    # feeds the CI differential; medium (64 hosts) is the scale the
    # shards=1 vs shards=N A/B is judged at.
    if tier == "small":
        config = replace(get_scale("bench"), fattree_k=8,
                         fattree_hosts_per_edge=1, fabric_duration=0.0015)
    else:
        config = replace(get_scale("small"), fattree_k=8,
                         fattree_hosts_per_edge=2, fabric_duration=0.004)
    return fat_tree_scenario(
        scheme="dt",
        config=config,
        query_size_bytes=int(0.6 * config.fabric_buffer_bytes_per_port * 8),
        background_load=0.5,
        name=f"perf_websearch_fattree_k8_{tier}",
    )


def _websearch_fattree_degraded(tier: str) -> ScenarioSpec:
    # The asymmetric-fabric shape: the fat-tree case with one failed
    # agg<->core link (routing prune + exclusion sets on the hot path) and
    # one half-rate edge<->agg uplink (capacity-weighted ECMP, per-link
    # serialization rates) -- the fabric-model machinery under load.
    if tier == "small":
        config = replace(get_scale("bench"), fabric_duration=0.0015)
    else:
        config = replace(get_scale("small"), fabric_duration=0.004)
    return fat_tree_scenario(
        scheme="dt",
        config=config,
        query_size_bytes=int(0.6 * config.fabric_buffer_bytes_per_port * 8),
        background_load=0.5,
        fabric=FabricSpec(
            failures=[["agg0_0", "core1"]],
            degraded=[["edge0_0", "agg0_0", 0.5]],
        ),
        name=f"perf_websearch_fattree_degraded_{tier}",
    )


def _websearch_fattree_ecmp_lb(tier: str) -> ScenarioSpec:
    # The fat-tree case with `lb: ecmp` spelled out.  The section is the
    # canonical default, so the built document -- and therefore the traffic
    # -- is byte-identical to `websearch_fat_tree`; only the attach-time
    # passthrough binding differs.  `python -m repro.perf overhead` A/Bs the
    # two to pin that binding at zero per-packet cost (CI gates it at 2%).
    spec = _websearch_fat_tree(tier)
    spec.name = f"perf_websearch_fattree_ecmp_lb_{tier}"
    spec.lb = LoadBalancerSpec("ecmp")
    return spec


def _websearch_fattree_flowlet(tier: str) -> ScenarioSpec:
    # The adaptive-load-balancing shape: the degraded fat-tree under flowlet
    # switching.  Every multi-uplink hop takes the lb delegate path --
    # memoized candidate resolution, flowlet-table lookup, least-backlog
    # re-pick at gap expiry -- which is the subsystem's hot loop.
    spec = _websearch_fattree_degraded(tier)
    spec.name = f"perf_websearch_fattree_flowlet_{tier}"
    spec.lb = LoadBalancerSpec("flowlet")
    return spec


def _dumbbell_burst(tier: str) -> ScenarioSpec:
    # Occamy on a dumbbell: steady cross traffic keeps the bottleneck busy
    # while a synchronized burst exercises the expulsion engine.
    duration = 0.008 if tier == "small" else 0.04
    return ScenarioSpec(
        name=f"perf_dumbbell_burst_{tier}",
        scheme=SchemeSpec("occamy", {"alpha": 4.0}),
        topology=TopologySpec("dumbbell", {
            "num_pairs": 4,
            "edge_rate_bps": 10 * GBPS,
            "ecn_threshold_bytes": 30_000,
        }),
        workloads=[
            WorkloadSpec("burst",
                         params={"burst_bytes": 60_000, "num_senders": 4,
                                 "receiver_index": 4},
                         rng_label="burst"),
            WorkloadSpec("poisson",
                         params={"load": 0.6, "load_scope": "aggregate",
                                 "distribution": "websearch"},
                         rng_label="bg"),
        ],
        transport=TransportSpec(),
        duration=duration,
    )


def _raw_switch_stream(tier: str) -> ScenarioSpec:
    # The fig11 shape: a long-lived 100 Gbps stream on port 0 plus a burst on
    # port 1, packet-level, with queue tracing enabled (its recording cost is
    # part of the measured pipeline).
    duration = 500e-6 if tier == "small" else 2500e-6
    return packet_burst_scenario(
        scheme="occamy",
        stream_specs=[
            {"rate_bps": 100 * GBPS, "port": 0, "duration": duration},
        ],
        burst_specs=[
            {"burst_bytes": 400 * KB, "rate_bps": 100 * GBPS, "port": 1,
             "start_time": duration / 3},
        ],
        port_rate_bps=10 * GBPS,
        buffer_bytes=2 * MB,
        memory_bandwidth_bps=2 * 32 * 10 * GBPS,
        duration=duration,
        name=f"perf_raw_switch_stream_{tier}",
    )


_BUILDERS = {
    "incast_single_switch": (
        _incast_single_switch,
        "DCTCP incast + websearch background on one switch (fig13 shape)",
    ),
    "websearch_leaf_spine": (
        _websearch_leaf_spine,
        "leaf-spine fabric with ECMP, incast + websearch (fig17 shape)",
    ),
    "websearch_leaf_spine_telemetry": (
        _websearch_leaf_spine_telemetry,
        "the leaf-spine case with the telemetry bus at default cadence",
    ),
    "websearch_fat_tree": (
        _websearch_fat_tree,
        "k=4 fat-tree, multi-stage ECMP, incast + websearch background",
    ),
    "websearch_fattree_k8": (
        _websearch_fattree_k8,
        "k=8 fat-tree (80 switches, 8 pods): the sharded-execution shape",
    ),
    "websearch_fattree_degraded": (
        _websearch_fattree_degraded,
        "k=4 fat-tree with a failed core link + half-rate uplink (WCMP)",
    ),
    "websearch_fattree_ecmp_lb": (
        _websearch_fattree_ecmp_lb,
        "the fat-tree case with an explicit lb:ecmp section (overhead A/B)",
    ),
    "websearch_fattree_flowlet": (
        _websearch_fattree_flowlet,
        "the degraded fat-tree under flowlet switching (repro.lb hot path)",
    ),
    "dumbbell_burst": (
        _dumbbell_burst,
        "occamy on a dumbbell: cross traffic + synchronized burst",
    ),
    "raw_switch_stream": (
        _raw_switch_stream,
        "packet-level stream + burst on a bare switch (fig11 shape)",
    ),
}

for _name, (_builder, _desc) in _BUILDERS.items():
    for _tier in TIERS:
        register_case(PerfCase(
            name=_name,
            tier=_tier,
            build=(lambda b=_builder, t=_tier: b(t)),
            description=_desc,
        ))
