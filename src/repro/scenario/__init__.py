"""Declarative scenarios: scheme x topology x workload x transport x lb.

The scenario layer composes five registries behind one JSON-expressible
:class:`~repro.scenario.spec.ScenarioSpec`, each an instance of the one
:class:`~repro.registry.Registry` class (factories plus default kwargs,
collision protection, kwargs bound against the factory at ``validate``):

* **schemes** -- :mod:`repro.core.registry` (default kwargs with the
  paper's parameter choices);
* **topologies** -- :mod:`repro.scenario.topologies` (``single_switch``,
  ``leaf_spine``, ``fat_tree``, ``dumbbell``, ``raw_switch``, pluggable;
  builders are called with ``manager_factory=`` by keyword);
* **workloads** -- :mod:`repro.scenario.workloads` (``incast``, ``poisson``,
  ``websearch``, ``all_to_all``, ``all_reduce``, ``burst``, ``permutation``,
  ``hotspot``, ``fixed``, packet-level streams/bursts);
* **transport configs** -- :mod:`repro.scenario.transports` (named
  TransportConfig profiles + per-workload protocol selection);
* **load balancers** -- :mod:`repro.lb` (``ecmp`` passthrough default,
  ``flowlet``), selected by the default-omitted ``lb`` spec section and
  bound per switch at attach time.

:class:`~repro.scenario.runner.ScenarioRunner` executes a spec and returns a
typed :class:`~repro.scenario.runner.ScenarioResult`.  The figure harnesses
build their runs through :mod:`repro.scenario.builders`; the campaign layer
sweeps any scenario dimension through its ``"scenario"`` grid type; and
``python -m repro.scenario run spec.json`` executes a stand-alone document.
"""

from repro.scenario.builders import (
    fixed_flows_workload,
    leaf_spine_scenario,
    packet_burst_scenario,
    single_switch_scenario,
)
from repro.scenario.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.scenario.scales import ScenarioConfig, get_scale
from repro.scenario.spec import (
    EngineSpec,
    FabricSpec,
    LoadBalancerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TransportSpec,
    WorkloadSpec,
)
from repro.scenario.topologies import (
    available_topologies,
    make_topology,
    register_topology,
    topology_level,
    unregister_topology,
)
from repro.scenario.transports import (
    available_transport_profiles,
    make_transport_config,
    register_transport_profile,
    unregister_transport_profile,
)
from repro.scenario.workloads import (
    WorkloadContext,
    available_workloads,
    make_workload,
    register_workload,
    unregister_workload,
)

__all__ = [
    "EngineSpec",
    "FabricSpec",
    "LoadBalancerSpec",
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SchemeSpec",
    "TopologySpec",
    "TransportSpec",
    "WorkloadContext",
    "WorkloadSpec",
    "available_topologies",
    "available_transport_profiles",
    "available_workloads",
    "fixed_flows_workload",
    "get_scale",
    "leaf_spine_scenario",
    "make_topology",
    "make_transport_config",
    "make_workload",
    "packet_burst_scenario",
    "register_topology",
    "register_transport_profile",
    "register_workload",
    "run_scenario",
    "single_switch_scenario",
    "topology_level",
    "unregister_topology",
    "unregister_transport_profile",
    "unregister_workload",
]
