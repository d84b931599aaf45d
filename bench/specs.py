"""Input generation: ``--seed`` -> the spec JSON documents of one workload.

The benchmark is the load generator.  The program under test receives only
the documents written here (``ScenarioSpec`` / ``SweepSpec`` JSON), never
the seed, and the generator is built so that *every seed asks for the same
amount of work*: the number of flows, their sizes, the number of bursts
and the bytes they carry are fixed per workload, and the seed only decides
who talks to whom and when.  That is what lets ten runs with ten different
seeds agree on host time to within a couple of percent; the program's own
Poisson generators are heavy-tailed and moved the event count 4.5x between
seeds at these run lengths (see README, "Why the benchmark generates the
flows").
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("fabric_websearch", "switch_burst", "fabric_features",
             "campaign_farm")

GBPS = 1_000_000_000

#: The DCTCP web-search flow-size CDF (Alizadeh et al., SIGCOMM 2010), the
#: paper's background traffic: (size_bytes, cumulative probability).
WEB_SEARCH_CDF = (
    (6_000, 0.15), (13_000, 0.20), (19_000, 0.30), (33_000, 0.40),
    (53_000, 0.53), (133_000, 0.60), (667_000, 0.70), (1_333_000, 0.80),
    (3_333_000, 0.90), (6_667_000, 0.97), (20_000_000, 1.00),
)

#: Frozen sizes.  ``full`` is what BENCHMARK.json measures (one repetition
#: ~2.5 s on the reference machine); ``tiny`` exists for the smoke test.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "fabric_websearch": {"duration": 0.0015, "queries": 8, "fanout": 8,
                             "query_bytes": 629_145, "background_flows": 10,
                             "flow_cap_bytes": 20_000_000},
        "switch_burst": {"duration": 0.0032, "bursts": 32,
                         "burst_bytes": 300_000},
        "fabric_features": {"duration": 0.0015, "queries": 6, "fanout": 8,
                            "query_bytes": 614_400, "background_flows": 12,
                            "flow_cap_bytes": 20_000_000,
                            "telemetry_capacity": 512},
        "campaign_farm": {"schemes": ["dt", "abm", "pushout", "occamy"],
                          "seeds": 3, "duration": 0.002},
    },
    "tiny": {
        "fabric_websearch": {"duration": 0.0004, "queries": 2, "fanout": 4,
                             "query_bytes": 120_000, "background_flows": 4,
                             "flow_cap_bytes": 60_000},
        "switch_burst": {"duration": 0.0002, "bursts": 4,
                         "burst_bytes": 60_000},
        "fabric_features": {"duration": 0.0004, "queries": 2, "fanout": 4,
                            "query_bytes": 120_000, "background_flows": 4,
                            "flow_cap_bytes": 60_000,
                            "telemetry_capacity": 64},
        "campaign_farm": {"schemes": ["dt", "occamy"], "seeds": 1,
                          "duration": 0.001},
    },
}

SWITCH_BURST_SCHEMES = ("dt", "abm", "pushout", "occamy")


def _rng(workload: str, seed: int) -> random.Random:
    # An int seed (str seeds hash differently across Python versions).
    return random.Random(seed * 1_000_003 + WORKLOADS.index(workload))


def web_search_quantile(p: float) -> float:
    """Inverse of :data:`WEB_SEARCH_CDF` (linear inside segments)."""
    if p <= WEB_SEARCH_CDF[0][1]:
        return float(WEB_SEARCH_CDF[0][0])
    for (s0, p0), (s1, p1) in zip(WEB_SEARCH_CDF, WEB_SEARCH_CDF[1:],
                                  strict=False):
        if p <= p1:
            return s0 + (p - p0) / (p1 - p0) * (s1 - s0)
    return float(WEB_SEARCH_CDF[-1][0])


def fabric_traffic(rng: random.Random, size: Dict[str, object],
                   hosts: int = 16, group: int = 4,
                   ) -> Tuple[List[dict], List[dict]]:
    """Incast queries + web-search background on a ``hosts``-host fabric.

    Constant work by construction: ``queries`` paced queries of ``fanout``
    equal responses towards one seed-chosen client, and
    ``background_flows`` flows whose sizes are the *stratified* quantiles
    of the web-search CDF (the same multiset for every seed, shuffled).
    Every flow crosses groups (``group`` hosts share a leaf / pod), so the
    hop count -- and with it the event count -- does not depend on the
    seed either.  Returns ``(query_flows, background_flows)`` in
    ``fixed``-workload form.
    """
    duration = float(size["duration"])
    queries, fanout = int(size["queries"]), int(size["fanout"])
    groups = hosts // group
    client = rng.randrange(hosts)
    remote = [h for h in range(hosts) if h // group != client // group]
    query_flows = []
    for q in range(queries):
        for server in rng.sample(remote, fanout):
            query_flows.append({
                "src": server, "dst": client,
                "size_bytes": int(size["query_bytes"]) // fanout,
                "start_time": q * duration / queries,
                "query_id": q + 1,
            })
    n = int(size["background_flows"])
    sizes = [min(int(size["flow_cap_bytes"]),
                 int(web_search_quantile((i + 0.5) / n))) for i in range(n)]
    rng.shuffle(sizes)
    sources = list(range(hosts))
    background = []
    for i, size_bytes in enumerate(sizes):
        if i % hosts == 0:
            rng.shuffle(sources)
        src = sources[i % hosts]
        dst_group = (src // group + rng.randrange(1, groups)) % groups
        background.append({
            "src": src, "dst": dst_group * group + rng.randrange(group),
            "size_bytes": size_bytes,
            "start_time": (i + rng.random()) * duration / n,
        })
    return query_flows, background


def _fabric_workloads(rng: random.Random, size: Dict[str, object]) -> list:
    query_flows, background = fabric_traffic(rng, size)
    return [{"kind": "fixed", "params": {"flows": query_flows}},
            {"kind": "fixed", "params": {"flows": background}}]


def fabric_websearch(seed: int, scale: str) -> Dict[str, dict]:
    """``dt`` and ``occamy`` on identical leaf-spine traffic (+ shard twin).

    The experiments' ``small`` fabric (4 leaves x 4 spines x 16 hosts,
    10 Gbps) with the ``bench`` scale's 64 KB/port buffers: at 128 KB the
    compressed window never fills a leaf and DT drops nothing, so the two
    schemes would run the same code path.
    """
    size = SIZES[scale]["fabric_websearch"]
    workloads = _fabric_workloads(_rng("fabric_websearch", seed), size)
    docs = {}
    for scheme in ("dt", "occamy"):
        docs[scheme] = {
            "name": f"bench-fabric-websearch-{scheme}",
            "scheme": {"name": scheme, "kwargs": {}},
            "topology": {"kind": "leaf_spine", "params": {
                "num_leaves": 4, "num_spines": 4, "hosts_per_leaf": 4,
                "link_rate_bps": 10 * GBPS,
                "buffer_bytes_per_port": 65_536,
                "ecn_threshold_bytes": 30_720,
            }},
            "workloads": workloads,
            "transport": {"protocol": "dctcp",
                          "config": {"min_rto": 0.002}},
            "duration": size["duration"],
            "run_slack": 30.0,
            "seed": seed,
        }
    # Traced run only: the dt spec across two shard processes.
    docs["dt_shards2"] = dict(docs["dt"], engine={"shards": 2})
    return docs


def switch_burst(seed: int, scale: str) -> Dict[str, dict]:
    """Four schemes on one bare switch under overload + periodic bursts.

    8 ports x 10 Gbps, 2 MB buffer, memory bandwidth 2*8*10 Gbps.  Ports
    0-3 each take a ~25 Gbps stream (the seed tilts the rates pairwise,
    the sum stays 100 Gbps); ports 4-7 take ``bursts`` bursts of
    ``burst_bytes`` at 100 Gbps, one per ``duration/bursts`` slot, dealt
    to the ports as a seed-shuffled balanced hand and jittered inside the
    first half of the slot.
    """
    size = SIZES[scale]["switch_burst"]
    rng = _rng("switch_burst", seed)
    duration, bursts = float(size["duration"]), int(size["bursts"])
    tilt = [rng.uniform(-0.08, 0.08) for _ in range(2)]
    rates = [25 * GBPS * (1 + sign * tilt[pair])
             for pair in range(2) for sign in (1, -1)]
    workloads = [{"kind": "packet_stream",
                  "params": {"rate_bps": rate, "port": port,
                             "duration": duration}}
                 for port, rate in enumerate(rates)]
    ports = [4 + i % 4 for i in range(bursts)]
    rng.shuffle(ports)
    slot = duration / bursts
    for i, port in enumerate(ports):
        workloads.append({"kind": "packet_burst", "params": {
            "burst_bytes": size["burst_bytes"], "rate_bps": 100 * GBPS,
            "port": port, "start_time": (i + 0.5 * rng.random()) * slot}})
    docs = {}
    for scheme in SWITCH_BURST_SCHEMES:
        docs[scheme] = {
            "name": f"bench-switch-burst-{scheme}",
            "scheme": {"name": scheme, "kwargs": {}},
            "topology": {"kind": "raw_switch", "params": {
                "num_ports": 8, "port_rate_bps": 10 * GBPS,
                "buffer_bytes": 2 * 1024 * 1024,
                "memory_bandwidth_bps": 2 * 8 * 10 * GBPS,
                "trace_queues": True,
            }},
            "workloads": workloads,
            "duration": duration,
            "run_slack": 1.0,
            "seed": seed,
        }
    return docs


def fabric_features(seed: int, scale: str) -> Dict[str, dict]:
    """Every non-default path at once on a k=4 fat-tree (+ traced twins).

    Static failure + degraded uplink, flowlet load balancing, telemetry
    on, the pooled kernel, and a mid-run fail/repair of ``agg1_1<->core2``
    (not ``agg1_0<->core0``: together with the static failure that strands
    pod-0 traffic and raises LookupError mid-run -- see README).
    """
    size = SIZES[scale]["fabric_features"]
    duration = float(size["duration"])
    base = {
        "name": "bench-fabric-features",
        "scheme": {"name": "occamy", "kwargs": {}},
        "topology": {"kind": "fat_tree", "params": {
            "k": 4, "hosts_per_edge": 2, "link_rate_bps": 10 * GBPS,
            "buffer_bytes_per_port": 65_536, "ecn_threshold_bytes": 30_720,
        }},
        "fabric": {
            "failures": [["agg0_0", "core1"]],
            "degraded": [["edge0_0", "agg0_0", 0.5]],
            "events": [
                {"t": 0.3 * duration, "fail": ["agg1_1", "core2"]},
                {"t": 0.7 * duration, "repair": ["agg1_1", "core2"]},
            ],
        },
        "lb": {"name": "flowlet", "kwargs": {}},
        "telemetry": {"enabled": True,
                      "capacity": size["telemetry_capacity"]},
        "engine": {"kernel": "pooled"},
        "workloads": _fabric_workloads(_rng("fabric_features", seed), size),
        "transport": {"protocol": "dctcp", "config": {"min_rto": 0.002}},
        "duration": duration,
        "run_slack": 30.0,
        "seed": seed,
    }
    # Traced run only: one feature switched back to its default each.
    return {
        "features": base,
        "heap_twin": dict(base, engine={"kernel": "heap"}),
        "telemetry_off_twin": dict(base, telemetry={"enabled": False}),
        "ecmp_twin": dict(base, lb={"name": "ecmp", "kwargs": {}}),
    }


def campaign_farm(seed: int, scale: str) -> Dict[str, dict]:
    """A scheme x seed scenario grid on the farm-smoke dumbbell.

    The ``examples/campaign_farm_smoke.json`` shape (dumbbell, synchronized
    burst, telemetry artifacts on) with the heavy-tailed ``datamining``
    background replaced by a ``permutation`` workload: one fixed-size flow
    per host along a derangement drawn by the *program* from the run's
    seed, so every run moves the same bytes.
    """
    size = SIZES[scale]["campaign_farm"]
    return {"sweep": {
        "name": "bench-campaign-farm",
        "grids": [{
            "type": "scenario",
            "scenario": {
                "name": "bench-dumbbell-burst",
                "scheme": {"name": "dt", "kwargs": {}},
                "topology": {"kind": "dumbbell", "params": {
                    "num_pairs": 4, "edge_rate_bps": 10.0 * GBPS,
                    "bottleneck_rate_bps": 10.0 * GBPS,
                    "ecn_threshold_bytes": 30_000,
                }},
                "workloads": [
                    {"kind": "burst", "rng_label": "burst",
                     "params": {"burst_bytes": 60_000, "num_senders": 4,
                                "receiver_index": 4, "start_time": 0.0}},
                    {"kind": "permutation", "rng_label": "bg",
                     "transport": "cubic",
                     "params": {"flow_size_bytes": 30_000,
                                "pattern": "random"}},
                ],
                "transport": {"protocol": "dctcp", "profile": "testbed",
                              "config": {}},
                "telemetry": {"enabled": True, "capacity": 64,
                              "per_port": False},
                "duration": size["duration"],
                "run_slack": 10.0,
                "seed": 0,
            },
            "axes": {"scheme": [{"name": name, "kwargs": {}}
                                for name in size["schemes"]]},
            "seeds": [seed * int(size["seeds"]) + i
                      for i in range(int(size["seeds"]))],
        }],
    }}


GENERATORS = {
    "fabric_websearch": fabric_websearch,
    "switch_burst": switch_burst,
    "fabric_features": fabric_features,
    "campaign_farm": campaign_farm,
}


def generate(workload: str, seed: int, scale: str = "full") -> Dict[str, dict]:
    """All spec documents of ``workload`` for ``seed``, keyed by file stem."""
    return GENERATORS[workload](seed, scale)
