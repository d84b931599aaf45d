"""Load-balancer names -> per-switch policy factories.

One :class:`~repro.registry.Registry`, the same class as every other named
factory: registrations carry default keyword arguments (the literature's
parameter choice -- flowlet gap ~ one fabric RTT), name collisions raise
unless ``override=True``, and :func:`make_load_balancer` merges call-site
kwargs over the defaults.

Factories return a **fresh instance per call**: the runner binds one policy
object per switch, so flowlet tables are never shared across switches.
"""

from __future__ import annotations

from typing import Callable

from repro.lb.base import EcmpPassthrough, FlowletBalancer, LoadBalancer
from repro.registry import Registry

LOAD_BALANCERS: Registry[Callable[..., LoadBalancer]] = Registry(
    "load balancer")

register_load_balancer = LOAD_BALANCERS.register
unregister_load_balancer = LOAD_BALANCERS.unregister
available_load_balancers = LOAD_BALANCERS.names
make_load_balancer = LOAD_BALANCERS.make


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
register_load_balancer("ecmp", EcmpPassthrough)
# Default gap ~ one fat-tree base RTT: long enough that packets inside a
# window-paced burst stay together, short enough to re-balance between
# bursts.
register_load_balancer("flowlet", FlowletBalancer, defaults={"gap": 100e-6})
