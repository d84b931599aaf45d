"""The workload registry: names -> traffic factories.

A workload factory takes a :class:`~repro.scenario.spec.WorkloadSpec` and a
:class:`WorkloadContext` and returns traffic:

* network-level factories (``incast``, ``poisson``/``websearch``,
  ``all_to_all``, ``all_reduce``, ``burst``, ``permutation``, ``hotspot``,
  ``fixed``) return a list of
  :class:`~repro.workloads.spec.FlowSpec` (injected as transport flows);
* packet-level factories (``packet_stream`` / ``packet_burst``) return a
  :class:`~repro.workloads.burst.PacketSchedule`: ``(time, size_bytes, port)``
  arrivals, generated as the run reaches them, applied straight to the
  switch.

Each workload draws from an independent random substream derived from the
scenario seed and the workload's ``rng_label`` (defaulting to its kind), so
adding a workload to a scenario never perturbs the traffic of the others.
The built-in factories reproduce the exact generation arithmetic of the
original figure harnesses -- including the order in which random draws are
consumed -- so legacy experiments re-expressed as scenarios are
trace-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.registry import Registry
from repro.sim.rng import SeededRNG
from repro.workloads import (
    DATA_MINING_DISTRIBUTION,
    HotspotFlowGenerator,
    IncastQueryGenerator,
    PoissonFlowGenerator,
    WEB_SEARCH_DISTRIBUTION,
    all_reduce_flows,
    all_to_all_flows,
    flows_per_second_for_load,
    permutation_flows,
)
from repro.workloads.burst import (
    PacketSchedule,
    burst_schedule,
    constant_rate_schedule,
)
from repro.workloads.spec import FlowSpec

_DISTRIBUTIONS = {
    "websearch": WEB_SEARCH_DISTRIBUTION,
    "datamining": DATA_MINING_DISTRIBUTION,
}


def _resolve_distribution(name: str):
    try:
        return _DISTRIBUTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown distribution {name!r}; "
            f"available: {', '.join(sorted(_DISTRIBUTIONS))}"
        ) from None


@dataclass
class WorkloadContext:
    """Everything a workload factory may consult about its scenario.

    ``query_ids`` is the run's one query-id count: the runner hands every
    workload the same one, so two ``incast`` workloads never share an id.
    """

    rng: SeededRNG
    duration: float
    hosts: List[int] = field(default_factory=list)
    link_rate_bps: float = 0.0
    topology: object = None
    query_ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))


WorkloadFactory = Callable[..., Sequence]

WORKLOADS: Registry[WorkloadFactory] = Registry("workload")

register_workload = WORKLOADS.register
unregister_workload = WORKLOADS.unregister
available_workloads = WORKLOADS.names


def make_workload(kind: str, params: dict, ctx: WorkloadContext) -> Sequence:
    """Generate the traffic of one workload."""
    return WORKLOADS.make(kind, ctx, **params)


# ----------------------------------------------------------------------
# Network-level factories (FlowSpec lists)
# ----------------------------------------------------------------------
def _client_and_servers(ctx: WorkloadContext, client_index: int) -> Tuple[int, List[int]]:
    if not ctx.hosts:
        raise ValueError("this workload needs a network-level topology with hosts")
    client = ctx.hosts[client_index]
    servers = [h for h in ctx.hosts if h != client]
    return client, servers


def incast_workload(
    ctx: WorkloadContext,
    query_size_bytes: int,
    fanout: int,
    arrival: str = "poisson",
    queries_per_second: float = 0.0,
    num_queries: int = 0,
    client_index: int = 0,
    priority: int = 0,
    start_time: float = 0.0,
) -> List[FlowSpec]:
    """Partition-aggregate queries towards one client host.

    ``arrival="poisson"`` issues queries as a Poisson process at
    ``queries_per_second`` over the scenario duration (the DPDK-testbed
    harness); ``arrival="paced"`` issues exactly ``num_queries`` queries
    evenly spaced across the duration (the leaf-spine harness, deterministic
    even at tiny scales).
    """
    client, servers = _client_and_servers(ctx, client_index)
    if arrival == "paced":
        rate = max(1.0, num_queries / ctx.duration) if num_queries else 1.0
    else:
        rate = queries_per_second
    generator = IncastQueryGenerator(
        clients=[client],
        servers=servers,
        query_size_bytes=query_size_bytes,
        fanout=fanout,
        queries_per_second=rate,
        rng=ctx.rng,
        priority=priority,
        query_ids=ctx.query_ids,
    )
    if arrival == "poisson":
        return generator.generate(ctx.duration, start_time=start_time)
    if arrival == "paced":
        if num_queries <= 0:
            raise ValueError("paced incast needs num_queries > 0")
        flows: List[FlowSpec] = []
        spacing = ctx.duration / max(1, num_queries)
        for i in range(num_queries):
            flows.extend(generator.make_query(client, start_time + i * spacing))
        return flows
    raise ValueError(f"unknown incast arrival mode {arrival!r}")


def poisson_workload(
    ctx: WorkloadContext,
    load: float = 0.0,
    load_scope: str = "aggregate",
    flows_per_second: float = 0.0,
    distribution: str = "websearch",
    priority: int = 0,
    start_time: float = 0.0,
) -> List[FlowSpec]:
    """Poisson background flows with empirical sizes (1-to-1 pattern).

    Either give ``flows_per_second`` directly, or a target ``load``:

    * ``load_scope="aggregate"`` -- ``load`` is the fraction of one link's
      rate consumed by the aggregate background (the single-switch testbed
      convention);
    * ``load_scope="per_host"`` -- ``load`` is the fraction of every host's
      link rate, so the aggregate scales with the host count (the leaf-spine
      convention).
    """
    dist = _resolve_distribution(distribution)
    if not ctx.hosts:
        raise ValueError("this workload needs a network-level topology with hosts")
    if not flows_per_second:
        if load <= 0:
            return []
        # Preserve the exact float arithmetic of the original harnesses:
        # both conventions compute a per-sender rate first and then scale by
        # the host count, so expovariate draws are bit-identical.
        if load_scope == "aggregate":
            per_sender = flows_per_second_for_load(
                load, ctx.link_rate_bps, dist.mean(), num_senders=len(ctx.hosts))
        elif load_scope == "per_host":
            per_sender = flows_per_second_for_load(
                load, ctx.link_rate_bps, dist.mean(), num_senders=1)
        else:
            raise ValueError(f"unknown load_scope {load_scope!r}")
        flows_per_second = per_sender * len(ctx.hosts)
    generator = PoissonFlowGenerator(
        ctx.hosts,
        dist,
        flows_per_second=flows_per_second,
        rng=ctx.rng,
        priority=priority,
    )
    return generator.generate(ctx.duration, start_time=start_time)


def all_to_all_workload(
    ctx: WorkloadContext,
    flow_size_bytes: int,
    start_time: float = 0.0,
    priority: int = 0,
) -> List[FlowSpec]:
    """One collective round: every host sends to every other host."""
    return all_to_all_flows(ctx.hosts, flow_size_bytes,
                            start_time=start_time, priority=priority)


def all_reduce_workload(
    ctx: WorkloadContext,
    flow_size_bytes: int,
    start_time: float = 0.0,
    priority: int = 0,
) -> List[FlowSpec]:
    """One all-reduce round generated with the double binary tree."""
    return all_reduce_flows(ctx.hosts, flow_size_bytes,
                            start_time=start_time, priority=priority)


def burst_workload(
    ctx: WorkloadContext,
    burst_bytes: int,
    num_senders: int = 0,
    receiver_index: int = 0,
    start_time: float = 0.0,
    priority: int = 0,
) -> List[FlowSpec]:
    """A synchronized burst: several hosts each send one flow to a receiver.

    Unlike ``incast`` this is not query traffic (no QCT accounting) -- it is
    the network-level analogue of the P4 burst-absorption micro-benchmarks,
    useful on any topology with a clear convergence point (e.g. dumbbell).
    """
    if burst_bytes <= 0:
        raise ValueError("burst_bytes must be positive")
    receiver, senders = _client_and_servers(ctx, receiver_index)
    if num_senders:
        senders = senders[:num_senders]
    return [
        FlowSpec(src=sender, dst=receiver, size_bytes=burst_bytes,
                 start_time=start_time, priority=priority)
        for sender in senders
    ]


def permutation_workload(
    ctx: WorkloadContext,
    flow_size_bytes: int,
    pattern: str = "random",
    shift: int = 1,
    start_time: float = 0.0,
    priority: int = 0,
) -> List[FlowSpec]:
    """One flow per host along a permutation (random derangement or shift)."""
    if not ctx.hosts:
        raise ValueError("this workload needs a network-level topology with hosts")
    return permutation_flows(
        ctx.hosts, flow_size_bytes, rng=ctx.rng, pattern=pattern, shift=shift,
        start_time=start_time, priority=priority)


def hotspot_workload(
    ctx: WorkloadContext,
    hotspot_fraction: float = 0.5,
    num_hotspots: int = 1,
    hotspot_hosts: Optional[Sequence[int]] = None,
    load: float = 0.0,
    flows_per_second: float = 0.0,
    distribution: str = "websearch",
    flow_size_bytes: Optional[int] = None,
    start_time: float = 0.0,
    priority: int = 0,
) -> List[FlowSpec]:
    """Poisson flows with a skewed receiver matrix (hotspot traffic).

    Destinations fall into ``hotspot_hosts`` (default: the last
    ``num_hotspots`` hosts, which on multi-stage fabrics land in the last
    pod/leaf) with probability ``hotspot_fraction``.  Sizes come from the
    named empirical ``distribution`` unless ``flow_size_bytes`` pins them.
    Either give ``flows_per_second`` directly or an aggregate ``load``
    (fraction of one link's rate, the single-switch testbed convention).
    """
    if not ctx.hosts:
        raise ValueError("this workload needs a network-level topology with hosts")
    hotspots = (list(hotspot_hosts) if hotspot_hosts is not None
                else ctx.hosts[-max(1, int(num_hotspots)):])
    dist = None
    if flow_size_bytes is None:
        dist = _resolve_distribution(distribution)
    if not flows_per_second:
        if load <= 0:
            return []
        mean_bytes = dist.mean() if dist is not None else float(flow_size_bytes)
        flows_per_second = flows_per_second_for_load(
            load, ctx.link_rate_bps, mean_bytes, num_senders=1)
    generator = HotspotFlowGenerator(
        ctx.hosts,
        hotspots,
        flows_per_second=flows_per_second,
        rng=ctx.rng,
        hotspot_fraction=hotspot_fraction,
        size_distribution=dist,
        flow_size_bytes=flow_size_bytes,
        priority=priority,
    )
    return generator.generate(ctx.duration, start_time=start_time)


def fixed_workload(ctx: WorkloadContext, flows: Sequence[dict]) -> List[FlowSpec]:
    """Explicitly listed flows (src/dst/size_bytes/start_time[/priority...]).

    Dict keys mirror :class:`~repro.workloads.spec.FlowSpec`.  A given
    ``flow_id`` or ``query_id`` is kept verbatim; flows without a
    ``flow_id`` are numbered with the rest of the run's flows
    (``ScenarioRunner.flow_order``), and a pinned id that collides with
    one of those is rejected there.
    """
    del ctx  # fixed flows are position-independent
    specs: List[FlowSpec] = []
    for entry in flows:
        query_id, flow_id = (None if entry.get(key) is None else int(entry[key])
                             for key in ("query_id", "flow_id"))
        specs.append(FlowSpec(
            src=int(entry["src"]),
            dst=int(entry["dst"]),
            size_bytes=int(entry["size_bytes"]),
            start_time=float(entry.get("start_time", 0.0)),
            priority=int(entry.get("priority", 0)),
            query_id=query_id,
            flow_id=flow_id,
        ))
    return specs


# ----------------------------------------------------------------------
# Packet-level factories ((time, size, port) arrivals)
# ----------------------------------------------------------------------
def packet_stream_workload(
    ctx: WorkloadContext,
    rate_bps: float,
    port: int,
    duration: float = 0.0,
    start_time: float = 0.0,
    packet_bytes: int = 1500,
) -> PacketSchedule:
    """Back-to-back packets at ``rate_bps`` aimed at one egress ``port``."""
    return constant_rate_schedule(rate_bps, duration or ctx.duration,
                                  packet_bytes=packet_bytes,
                                  start_time=start_time, port=port)


def packet_burst_workload(
    ctx: WorkloadContext,
    burst_bytes: int,
    rate_bps: float,
    port: int,
    start_time: float = 0.0,
    packet_bytes: int = 1500,
) -> PacketSchedule:
    """A burst of ``burst_bytes`` sent back-to-back at ``rate_bps``."""
    del ctx
    return burst_schedule(burst_bytes, rate_bps, packet_bytes=packet_bytes,
                          start_time=start_time, port=port)


register_workload("incast", incast_workload)
register_workload("poisson", poisson_workload)
register_workload("websearch", poisson_workload,
                  defaults={"distribution": "websearch"})
register_workload("all_to_all", all_to_all_workload)
register_workload("all_reduce", all_reduce_workload)
register_workload("burst", burst_workload)
register_workload("permutation", permutation_workload)
register_workload("hotspot", hotspot_workload)
register_workload("fixed", fixed_workload)
register_workload("packet_stream", packet_stream_workload)
register_workload("packet_burst", packet_burst_workload)
