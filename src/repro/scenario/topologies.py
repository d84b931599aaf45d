"""The topology registry: names -> topology builders.

Every entry couples a builder callable with its *level*:

* ``network`` -- the builder returns a topology exposing ``.network`` (hosts,
  links, transport); workloads produce :class:`~repro.workloads.spec.FlowSpec`
  lists that the runner injects as transport connections.
* ``switch`` -- the builder returns a topology exposing ``.switch`` and no
  network; workloads produce raw ``(time, size_bytes, port)`` arrivals applied
  straight to the switch ingress (the P4-prototype figures).

Builders are entries of one :class:`~repro.registry.Registry` (the registry
class every named factory goes through) and are called as
``builder(manager_factory=..., **params)``: ``manager_factory`` -- by
keyword -- is a zero-argument callable producing a fresh buffer manager per
switch and ``params`` come verbatim from
:class:`~repro.scenario.spec.TopologySpec`.  The built-ins are the topology
classes themselves.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.registry import Registry
from repro.topology.dumbbell import DumbbellTopology
from repro.topology.fattree import FatTreeTopology
from repro.topology.leaf_spine import LeafSpineTopology
from repro.topology.raw_switch import RawSwitchTopology
from repro.topology.single_switch import SingleSwitchTopology

LEVEL_NETWORK = "network"
LEVEL_SWITCH = "switch"

TOPOLOGIES: Registry[Callable[..., object]] = Registry("topology")
_LEVELS: Dict[str, str] = {}


def register_topology(
    name: str,
    builder: Callable[..., object],
    level: str = LEVEL_NETWORK,
    override: bool = False,
) -> None:
    """Register a topology builder under ``name``."""
    if level not in (LEVEL_NETWORK, LEVEL_SWITCH):
        raise ValueError(f"level must be 'network' or 'switch', got {level!r}")
    TOPOLOGIES.register(name, builder, override=override)
    _LEVELS[name] = level


def unregister_topology(name: str) -> None:
    TOPOLOGIES.unregister(name)
    _LEVELS.pop(name, None)


available_topologies = TOPOLOGIES.names


def topology_level(name: str) -> str:
    """The level (``network`` or ``switch``) of topology ``name``."""
    TOPOLOGIES.get(name)  # an unknown name raises the registry's KeyError
    return _LEVELS[name]


def make_topology(name: str, manager_factory: Callable[[], object], /,
                  **params):
    """Build the topology registered under ``name``.

    ``name`` is positional-only, so a builder parameter of the same name
    (``raw_switch``'s switch name) passes through ``params``.

    Network-level topologies get their link-arrival event priorities
    assigned here (see ``Network.assign_event_priorities``): every process
    that builds the same spec derives the same priorities, which is what
    keeps equal-timestamp arrival ordering identical between the
    single-process oracle and the sharded engine's workers.
    """
    topology = TOPOLOGIES.make(name, manager_factory=manager_factory, **params)
    network = getattr(topology, "network", None)
    if network is not None and hasattr(network, "assign_event_priorities"):
        network.assign_event_priorities()
    return topology


# ----------------------------------------------------------------------
# Built-in topologies
# ----------------------------------------------------------------------
register_topology("single_switch", SingleSwitchTopology, level=LEVEL_NETWORK)
register_topology("leaf_spine", LeafSpineTopology, level=LEVEL_NETWORK)
register_topology("fat_tree", FatTreeTopology, level=LEVEL_NETWORK)
register_topology("dumbbell", DumbbellTopology, level=LEVEL_NETWORK)
register_topology("raw_switch", RawSwitchTopology, level=LEVEL_SWITCH)
