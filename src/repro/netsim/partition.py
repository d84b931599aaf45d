"""Fabric partitioning for the sharded conservative-parallel engine.

A :class:`Partition` splits one built topology into ``num_shards`` disjoint
node sets ("shards") by cutting the fabric graph **at link boundaries**: every
node (switch or host) is owned by exactly one shard, and a link whose two
endpoints live in different shards becomes a *cut link*.  The sharded
executor (:mod:`repro.sim.shard`) runs each shard in its own process and
ferries the packets that cross cut links between processes, synchronizing
conservatively with a lookahead equal to the **minimum cut-link propagation
delay** -- a packet transmitted at time ``t`` cannot influence the far side
before ``t + delay``, so every shard may freely execute a window of that
length before the next exchange (the FireSim-style token rule).

Two things make a cut valid, both checked here and surfaced as loud
``ValueError`` at validation time rather than as a hang mid-run:

* every cut link must have **positive delay** (a zero-delay cut has zero
  lookahead: the conservative window collapses and no parallelism exists);
* the assignment must **cover every node exactly once** and leave no shard
  empty.

Strategies (``engine.partition``):

* ``auto`` -- topology-aware: pod cut for ``fat_tree`` (a pod's hosts, edge
  and aggregation switches stay together; cores are distributed in
  contiguous blocks, so only agg<->core links are cut), leaf cut for
  ``leaf_spine`` (leaves + their hosts together, spines distributed; only
  leaf<->spine links are cut), and the generic cut below for everything
  else.
* ``contiguous`` -- the generic fallback: contiguous switch blocks in
  ``all_switches()`` order with hosts following their access switch, or --
  when there are fewer switches than shards -- contiguous host blocks with
  all switches in shard 0 (host<->switch links become the cut; this is how
  a ``single_switch`` incast shards).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.netsim.network import Network, host_node_name

#: Registry names accepted by ``engine.partition``.
PARTITION_STRATEGIES = ("auto", "pods", "leaves", "contiguous")


@dataclass
class Partition:
    """One validated shard assignment over a built topology.

    Attributes:
        num_shards: shard count (processes the executor will spawn).
        strategy: the strategy that produced the assignment.
        assignment: node name -> owning shard id, covering every switch
            name and every host (as ``h<id>``) exactly once.
        cut_links: directed cut links as ``(src_name, dst_name)`` pairs in
            deterministic (sorted) order; the index into this list is the
            link's stable *handoff id* on every shard.
        lookahead: the conservative synchronization window in seconds --
            the minimum propagation delay over all cut links.
    """

    num_shards: int
    strategy: str
    assignment: Dict[str, int]
    cut_links: List[Tuple[str, str]] = field(default_factory=list)
    lookahead: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "strategy": self.strategy,
            "assignment": dict(sorted(self.assignment.items())),
            "cut_links": [list(pair) for pair in self.cut_links],
            "lookahead": self.lookahead,
        }


def _block(index: int, total: int, num_shards: int) -> int:
    """Balanced contiguous block assignment: item ``index`` of ``total``."""
    return index * num_shards // total


def _fat_tree_assignment(topology, num_shards: int) -> Dict[str, int]:
    """Pod cut: a pod's hosts + edges + aggs share a shard; cores spread.

    Only agg<->core links cross shards, so the lookahead is the core-tier
    propagation delay (``base_rtt / 12``) and intra-pod traffic never pays
    a handoff.
    """
    k = topology.k
    if num_shards > k:
        raise ValueError(
            f"fat_tree pod cut supports at most one shard per pod: "
            f"k={k} pods < {num_shards} shards")
    assignment: Dict[str, int] = {}
    half = k // 2
    for pod in range(k):
        shard = _block(pod, k, num_shards)
        for e in range(half):
            assignment[f"edge{pod}_{e}"] = shard
            assignment[f"agg{pod}_{e}"] = shard
    num_cores = half * half
    for c in range(num_cores):
        assignment[f"core{c}"] = _block(c, num_cores, num_shards)
    for host_id in topology.hosts:
        assignment[host_node_name(host_id)] = _block(
            topology.pod_of_host(host_id), k, num_shards)
    return assignment


def _leaf_spine_assignment(topology, num_shards: int) -> Dict[str, int]:
    """Leaf cut: leaves + their hosts share a shard; spines spread."""
    num_leaves = topology.num_leaves
    if num_shards > num_leaves:
        raise ValueError(
            f"leaf_spine leaf cut supports at most one shard per leaf: "
            f"{num_leaves} leaves < {num_shards} shards")
    assignment: Dict[str, int] = {}
    for leaf_idx in range(num_leaves):
        assignment[f"leaf{leaf_idx}"] = _block(leaf_idx, num_leaves,
                                               num_shards)
    for spine_idx in range(topology.num_spines):
        assignment[f"spine{spine_idx}"] = _block(
            spine_idx, topology.num_spines, num_shards)
    for host_id, leaf_idx in topology.host_leaf.items():
        assignment[host_node_name(host_id)] = _block(leaf_idx, num_leaves,
                                                     num_shards)
    return assignment


def _contiguous_assignment(topology, num_shards: int) -> Dict[str, int]:
    """Generic cut: contiguous switch blocks, hosts follow their access
    switch; with fewer switches than shards, contiguous host blocks instead
    (all switches in shard 0, host links become the cut)."""
    network: Network = topology.network
    switch_names = [node.name for node in topology.all_switches()]
    assignment: Dict[str, int] = {}
    if len(switch_names) >= num_shards:
        for index, name in enumerate(switch_names):
            assignment[name] = _block(index, len(switch_names), num_shards)
        for host_id, host in sorted(network.hosts.items()):
            if host.link is None:
                raise ValueError(
                    f"host {host_id} has no access link; cannot partition")
            access = host.link.dst_node.name
            assignment[host_node_name(host_id)] = assignment[access]
    else:
        hosts = sorted(network.hosts)
        if len(hosts) < num_shards:
            raise ValueError(
                f"topology too small to partition: {len(switch_names)} "
                f"switches and {len(hosts)} hosts < {num_shards} shards")
        for name in switch_names:
            assignment[name] = 0
        for index, host_id in enumerate(hosts):
            assignment[host_node_name(host_id)] = _block(
                index, len(hosts), num_shards)
    return assignment


def partition_topology(topology, num_shards: int,
                       strategy: str = "auto") -> Partition:
    """Compute and validate a shard assignment for a built topology.

    Raises ``ValueError`` for any invalid cut: unknown strategy, too many
    shards for the topology, an empty shard, incomplete node cover, or a
    zero-delay cut link.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards!r}")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; "
            f"available: {', '.join(PARTITION_STRATEGIES)}")
    network = getattr(topology, "network", None)
    if network is None:
        raise ValueError(
            "sharded execution needs a network-level topology "
            "(this topology has no network/link graph to cut)")

    resolved = strategy
    if strategy == "auto":
        if hasattr(topology, "pod_of_host"):
            resolved = "pods"
        elif hasattr(topology, "host_leaf"):
            resolved = "leaves"
        else:
            resolved = "contiguous"
    if resolved == "pods":
        if not hasattr(topology, "pod_of_host"):
            raise ValueError(
                "partition strategy 'pods' needs a fat_tree topology")
        assignment = _fat_tree_assignment(topology, num_shards)
    elif resolved == "leaves":
        if not hasattr(topology, "host_leaf"):
            raise ValueError(
                "partition strategy 'leaves' needs a leaf_spine topology")
        assignment = _leaf_spine_assignment(topology, num_shards)
    else:
        assignment = _contiguous_assignment(topology, num_shards)

    partition = Partition(num_shards=num_shards, strategy=resolved,
                          assignment=assignment)
    _validate(partition, network)
    return partition


def _validate(partition: Partition, network: Network) -> None:
    """Check cover, non-empty shards and positive cut delays; fill in the
    cut-link list and lookahead."""
    assignment = partition.assignment
    expected = ({name for name in network.switch_nodes}
                | {host_node_name(h) for h in network.hosts})
    assigned = set(assignment)
    missing = sorted(expected - assigned)
    extra = sorted(assigned - expected)
    if missing or extra:
        raise ValueError(
            "partition must cover every node exactly once; "
            f"missing: {missing[:8]!r}, unknown: {extra[:8]!r}")
    for name, shard in assignment.items():
        if not 0 <= shard < partition.num_shards:
            raise ValueError(
                f"node {name!r} assigned to shard {shard}, outside "
                f"0..{partition.num_shards - 1}")
    populated = {shard for shard in assignment.values()}
    if len(populated) != partition.num_shards:
        empty = sorted(set(range(partition.num_shards)) - populated)
        raise ValueError(
            f"partition leaves shards {empty} empty; use fewer shards or "
            "a different strategy")

    cut: List[Tuple[str, str]] = []
    lookahead = float("inf")
    for (src_name, dst_name), fabric in sorted(network.links.items()):
        if assignment[src_name] == assignment[dst_name]:
            continue
        delay = fabric.link.delay
        if not delay > 0:
            raise ValueError(
                f"cut link {src_name}->{dst_name} has zero propagation "
                "delay: the conservative lookahead would be zero.  Cut at "
                "links with positive delay (or use fewer shards)")
        cut.append((src_name, dst_name))
        lookahead = min(lookahead, delay)
    if partition.num_shards > 1 and not cut:
        raise ValueError(
            "partition produced no cut links despite multiple shards; "
            "the shard graph is disconnected from the fabric model")
    partition.cut_links = cut
    partition.lookahead = 0.0 if lookahead == float("inf") else lookahead
