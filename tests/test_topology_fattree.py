"""Tests for the k-ary fat-tree topology and multi-stage ECMP routing."""

import pytest

from repro.core.registry import make_buffer_manager
from repro.netsim.routing import PathEnumerator, trace_path
from repro.scenario import (
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.topology.fattree import FatTreeTopology
from repro.topology.leaf_spine import LeafSpineTopology


def _dt_factory():
    return make_buffer_manager("dt")


def _fat_tree(**kwargs) -> FatTreeTopology:
    return FatTreeTopology(manager_factory=_dt_factory, **kwargs)


class TestFatTreeStructure:
    def test_k4_dimensions(self):
        topo = _fat_tree(k=4)
        # k pods x k/2 edges x k/2 hosts = 16 hosts; 8 edge + 8 agg + 4 core.
        assert topo.num_hosts == 16
        assert len(topo.edges) == 8
        assert len(topo.aggs) == 8
        assert len(topo.cores) == 4
        assert len(topo.all_switches()) == 20

    def test_pod_membership(self):
        topo = _fat_tree(k=4)
        assert topo.pod_of_host(0) == 0
        assert topo.pod_of_host(15) == 3
        assert topo.hosts_of_pod(0) == [0, 1, 2, 3]
        assert topo.edge_of_host(5).name == "edge1_0"

    def test_oversubscription_scales_hosts_per_edge(self):
        topo = _fat_tree(k=4, oversubscription=2.0)
        assert topo.hosts_per_edge == 4
        assert topo.num_hosts == 32
        # An explicit hosts_per_edge wins over the knob.
        topo = _fat_tree(k=4, oversubscription=2.0, hosts_per_edge=1)
        assert topo.num_hosts == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            _fat_tree(k=3)
        with pytest.raises(ValueError, match="oversubscription"):
            _fat_tree(k=4, oversubscription=0)
        with pytest.raises(ValueError, match="hosts_per_edge"):
            _fat_tree(k=4, hosts_per_edge=0)


class TestFatTreePaths:
    def test_inter_pod_path_count_and_shape(self):
        topo = _fat_tree(k=4)
        paths = topo.paths_between(0, 15)
        # (k/2)^2 equal-cost paths, each edge->agg->core->agg->edge.
        assert len(paths) == 4
        assert all(len(p) == 5 for p in paths)
        assert all(p[0] == "edge0_0" and p[-1] == "edge3_1" for p in paths)
        assert all(p[2].startswith("core") for p in paths)
        assert len({p[2] for p in paths}) == 4  # every core is reachable

    def test_intra_pod_and_intra_edge_paths(self):
        topo = _fat_tree(k=4)
        intra_pod = topo.paths_between(0, 2)  # same pod, different edge
        assert len(intra_pod) == 2
        assert all(len(p) == 3 for p in intra_pod)
        assert topo.paths_between(0, 1) == [("edge0_0",)]  # same edge

    def test_flow_path_is_one_of_the_enumerated_paths(self):
        topo = _fat_tree(k=4)
        paths = set(topo.paths_between(0, 15))
        for flow_id in range(40):
            assert topo.path_of_flow(0, 15, flow_id) in paths

    def test_ecmp_exercises_every_equal_cost_path(self):
        # Regression for cross-stage hash polarization: edge and agg both
        # have k/2 uplinks, so without per-switch salts the agg repeats the
        # edge's pick and only the "diagonal" cores ever carry traffic.
        # Over many flow ids the traced paths must cover the FULL enumerated
        # path set -- all (k/2)^2 of them, i.e. every core.
        topo = _fat_tree(k=4)
        all_paths = set(topo.paths_between(0, 15))
        assert len(all_paths) == 4
        chosen = {topo.path_of_flow(0, 15, flow_id) for flow_id in range(256)}
        assert chosen == all_paths

    def test_every_core_carries_traffic_across_host_pairs(self):
        # The stronger fabric-wide form: sweeping inter-pod host pairs and
        # flow ids must light up every core switch, not a polarized subset.
        topo = _fat_tree(k=4)
        cores_used = set()
        for src in topo.hosts_of_pod(0):
            for dst in topo.hosts_of_pod(1):
                for flow_id in range(16):
                    path = topo.path_of_flow(src, dst, flow_id)
                    cores_used.add(path[2])
        assert cores_used == {core.name for core in topo.cores}

    def test_trace_path_matches_shared_ecmp_memo(self):
        # trace_path resolves through the same per-table memo the data path
        # uses, so repeated traces (and a pre-seeded route()) agree.
        topo = _fat_tree(k=4)
        first = trace_path(topo.edge_of_host(3), 3, 12, 9)
        assert trace_path(topo.edge_of_host(3), 3, 12, 9) == first

    def test_enumerator_memoizes_suffixes(self):
        topo = _fat_tree(k=4)
        enumerator = PathEnumerator()
        first = enumerator.paths(topo.edge_of_host(0), 15)
        memo_size = len(enumerator._memo)
        assert memo_size > 0
        # A second source in the same pod reuses the agg/core suffixes: the
        # memo grows by at most the new edge's own entry.
        second = enumerator.paths(topo.edge_of_host(2), 15)
        assert len(enumerator._memo) <= memo_size + 1
        assert first != second  # different first hop
        assert {p[1:] for p in first} == {p[1:] for p in second}


class TestFatTreeEndToEnd:
    def test_permutation_scenario_completes(self):
        spec = ScenarioSpec(
            name="fattree-permutation",
            scheme=SchemeSpec("dt"),
            topology=TopologySpec("fat_tree", {
                "k": 4,
                "hosts_per_edge": 1,
                "ecn_threshold_bytes": 30_000,
            }),
            workloads=[WorkloadSpec("permutation",
                                    params={"flow_size_bytes": 20_000})],
            duration=0.002,
        )
        result = run_scenario(spec)
        stats = result.flow_stats
        assert len(stats.flows) == result.topology.num_hosts
        assert stats.completion_fraction() == 1.0
        assert result.summary_row()["topology"] == "fat_tree"


class TestLeafSpineOversubscription:
    def test_knob_derives_spine_count(self):
        topo = LeafSpineTopology(manager_factory=_dt_factory, num_leaves=2,
                                 hosts_per_leaf=4, oversubscription=2.0)
        assert topo.num_spines == 2
        topo = LeafSpineTopology(manager_factory=_dt_factory, num_leaves=2,
                                 hosts_per_leaf=4, oversubscription=8.0)
        assert topo.num_spines == 1

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="oversubscription"):
            LeafSpineTopology(manager_factory=_dt_factory,
                              oversubscription=-1.0)
