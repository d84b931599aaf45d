"""Adaptive load balancing: the fifth scenario registry (a
:class:`~repro.registry.Registry` like the other four).

ECMP's static flow hash is exactly wrong on an asymmetric fabric: a failed
or degraded uplink keeps its hash share of the flows until the end of the
run.  This package adds uplink-choice *policies* that the switch data path
delegates to -- bound per switch at attach time by
:meth:`~repro.netsim.switch_node.SwitchNode.set_load_balancer`:

* ``ecmp`` -- the default passthrough: the node keeps its direct hash path,
  zero per-packet cost, byte-identical to pre-LB behaviour;
* ``flowlet`` -- gap-timeout flowlet tables (re-pick at idle gaps, no
  reordering inside a burst).

Scenario documents select a policy through the canonically-hashed-but-
default-omitted ``lb`` section (``{"lb": {"name": "flowlet", "kwargs":
{"gap": 5e-05}}}``); campaigns sweep it with the ``lb.name`` dotted axis.
"""

from repro.lb.base import EcmpPassthrough, FlowletBalancer, LoadBalancer
from repro.lb.registry import (
    available_load_balancers,
    make_load_balancer,
    register_load_balancer,
    unregister_load_balancer,
)

__all__ = [
    "EcmpPassthrough",
    "FlowletBalancer",
    "LoadBalancer",
    "available_load_balancers",
    "make_load_balancer",
    "register_load_balancer",
    "unregister_load_balancer",
]
