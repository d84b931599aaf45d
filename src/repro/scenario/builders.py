"""Builders turning the paper's canonical setups into ScenarioSpecs.

These functions encode the three experiment harness shapes of the paper as
declarative scenarios:

* :func:`single_switch_scenario` -- the DPDK software-switch testbed
  (Section 6.2): incast queries + web-search background on a star topology;
* :func:`leaf_spine_scenario` -- the ns-3 leaf-spine simulations
  (Section 6.4): paced incast queries + web-search or collective background;
* :func:`packet_burst_scenario` -- the P4-prototype micro-benchmarks
  (Figures 3/11/12): raw packet streams and bursts on a bare switch.

They reproduce the original hand-wired harness runners parameter-for-parameter
(including derived quantities such as fanout caps and query pacing), so a
figure harness re-expressed through them is trace-identical to the original
code.  Every returned spec is
JSON-serializable: ``spec.to_dict()`` is a valid campaign scenario document.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.scenario.scales import ScenarioConfig
from repro.scenario.spec import (
    FabricSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TransportSpec,
    WorkloadSpec,
)
from repro.sim.units import KB


def fixed_flows_workload(
    flows: Sequence[Dict[str, object]],
    transport: Optional[str] = None,
) -> WorkloadSpec:
    """Wrap explicit flow dicts (``FlowSpec`` fields) as a ``fixed`` workload."""
    return WorkloadSpec(
        kind="fixed",
        params={"flows": [dict(f) for f in flows]},
        transport=transport,
    )


def single_switch_scenario(
    scheme: str,
    config: ScenarioConfig,
    query_size_bytes: int,
    seed: int = 0,
    background_load: float = 0.5,
    background_transport: str = "dctcp",
    query_transport: str = "dctcp",
    queues_per_port: int = 1,
    scheduler: str = "fifo",
    query_priority: int = 0,
    background_priority: int = 0,
    alpha_overrides: Optional[Dict[int, float]] = None,
    scheme_kwargs: Optional[Dict[str, object]] = None,
    extra_flows: Optional[Sequence[Dict[str, object]]] = None,
    include_background: bool = True,
    fabric: Optional[FabricSpec] = None,
    name: str = "single_switch",
) -> ScenarioSpec:
    """The DPDK-testbed scenario: incast queries + web-search background.

    ``fabric`` injects the fabric model (the star's single tier is
    ``host``; degraded host links are supported, failures are not).
    """
    servers = config.num_hosts - 1
    workloads: List[WorkloadSpec] = [
        WorkloadSpec(
            kind="incast",
            rng_label="query",
            transport=query_transport,
            params={
                "query_size_bytes": query_size_bytes,
                "fanout": min(config.incast_fanout, max(1, 2 * servers)),
                "arrival": "poisson",
                "queries_per_second": max(1.0, config.queries / config.duration),
                "priority": query_priority,
            },
        )
    ]
    if include_background and background_load > 0:
        workloads.append(
            WorkloadSpec(
                kind="websearch",
                rng_label="bg",
                transport=background_transport,
                params={
                    "load": background_load,
                    "load_scope": "aggregate",
                    "priority": background_priority,
                },
            )
        )
    if extra_flows:
        workloads.append(
            fixed_flows_workload(extra_flows, transport=background_transport)
        )
    return ScenarioSpec(
        name=name,
        scheme=SchemeSpec(name=scheme, kwargs=dict(scheme_kwargs or {})),
        topology=TopologySpec(
            kind="single_switch",
            params={
                "num_hosts": config.num_hosts,
                "link_rate_bps": config.link_rate_bps,
                "buffer_kb_per_port_per_gbps": config.buffer_kb_per_port_per_gbps,
                "queues_per_port": queues_per_port,
                "scheduler": scheduler,
                "ecn_threshold_bytes": config.mtu_ecn_threshold_bytes(),
            },
        ),
        workloads=workloads,
        transport=TransportSpec(protocol="dctcp",
                                config={"min_rto": config.min_rto}),
        fabric=fabric or FabricSpec(),
        duration=config.duration,
        run_slack=config.run_slack,
        seed=seed,
        alpha_overrides=dict(alpha_overrides or {}),
    )


def leaf_spine_scenario(
    scheme: str,
    config: ScenarioConfig,
    query_size_bytes: int,
    seed: int = 0,
    background_load: float = 0.4,
    background_kind: str = "websearch",
    background_flow_size: int = 256 * KB,
    query_load_queries: Optional[int] = None,
    scheme_kwargs: Optional[Dict[str, object]] = None,
    buffer_bytes_per_port: Optional[int] = None,
    fabric: Optional[FabricSpec] = None,
    name: str = "leaf_spine",
) -> ScenarioSpec:
    """The ns-3-style leaf-spine scenario (Section 6.4).

    ``fabric`` injects the asymmetric fabric model (tiers ``host`` /
    ``spine``, failures such as ``["leaf0", "spine1"]``, degradations).
    """
    num_hosts = config.num_leaves * config.hosts_per_leaf
    num_queries = (query_load_queries if query_load_queries is not None
                   else config.fabric_queries)
    workloads: List[WorkloadSpec] = [
        WorkloadSpec(
            kind="incast",
            rng_label="query",
            params={
                "query_size_bytes": query_size_bytes,
                "fanout": min(config.fabric_incast_fanout, num_hosts - 1),
                "arrival": "paced",
                "num_queries": num_queries,
            },
        )
    ]
    if background_kind == "websearch":
        if background_load > 0:
            workloads.append(
                WorkloadSpec(
                    kind="websearch",
                    rng_label="bg",
                    params={
                        "load": background_load,
                        "load_scope": "per_host",
                    },
                )
            )
    elif background_kind in ("all_to_all", "all_reduce"):
        workloads.append(
            WorkloadSpec(
                kind=background_kind,
                params={"flow_size_bytes": background_flow_size,
                        "start_time": 0.0},
            )
        )
    else:
        raise ValueError(f"unknown background kind {background_kind!r}")
    return ScenarioSpec(
        name=name,
        scheme=SchemeSpec(name=scheme, kwargs=dict(scheme_kwargs or {})),
        topology=TopologySpec(
            kind="leaf_spine",
            params={
                "num_leaves": config.num_leaves,
                "num_spines": config.num_spines,
                "hosts_per_leaf": config.hosts_per_leaf,
                "link_rate_bps": config.fabric_link_rate_bps,
                "buffer_bytes_per_port": (
                    buffer_bytes_per_port
                    if buffer_bytes_per_port is not None
                    else config.fabric_buffer_bytes_per_port
                ),
                "ecn_threshold_bytes": config.fabric_ecn_threshold_bytes,
            },
        ),
        workloads=workloads,
        transport=TransportSpec(protocol="dctcp",
                                config={"min_rto": config.min_rto}),
        fabric=fabric or FabricSpec(),
        duration=config.fabric_duration,
        run_slack=config.run_slack,
        seed=seed,
    )


def packet_burst_scenario(
    scheme: str,
    scheme_kwargs: Optional[Dict[str, object]] = None,
    stream_specs: Optional[Iterable[Dict[str, object]]] = None,
    burst_specs: Optional[Iterable[Dict[str, object]]] = None,
    num_ports: int = 2,
    port_rate_bps: float = 0.0,
    buffer_bytes: int = 0,
    memory_bandwidth_bps: Optional[float] = None,
    duration: float = 0.0,
    fabric: Optional[FabricSpec] = None,
    name: str = "packet_burst",
) -> ScenarioSpec:
    """A P4-prototype-style packet-level scenario on a bare switch.

    ``stream_specs`` / ``burst_specs`` are parameter dicts for the
    ``packet_stream`` / ``packet_burst`` workloads (rate, port, timing).
    Streams are scheduled before bursts, in the given order, which pins the
    tie-break order of simultaneous arrivals.  ``fabric`` supports the bare
    switch's tier (``port``) and per-port ``[port_id, factor]`` degradation.
    """
    workloads: List[WorkloadSpec] = []
    for params in stream_specs or []:
        workloads.append(WorkloadSpec(kind="packet_stream", params=dict(params)))
    for params in burst_specs or []:
        workloads.append(WorkloadSpec(kind="packet_burst", params=dict(params)))
    topo_params: Dict[str, object] = {
        "num_ports": num_ports,
        "port_rate_bps": port_rate_bps,
        "buffer_bytes": buffer_bytes,
        "trace_queues": True,
    }
    if memory_bandwidth_bps is not None:
        topo_params["memory_bandwidth_bps"] = memory_bandwidth_bps
    return ScenarioSpec(
        name=name,
        scheme=SchemeSpec(name=scheme, kwargs=dict(scheme_kwargs or {})),
        topology=TopologySpec(kind="raw_switch", params=topo_params),
        workloads=workloads,
        fabric=fabric or FabricSpec(),
        duration=duration,
        run_slack=1.0,
    )
