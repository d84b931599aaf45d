"""The transport-config registry: named TransportConfig profiles.

A *profile* is a reusable set of :class:`~repro.netsim.transport.base.
TransportConfig` keyword arguments (e.g. the paper's ns-3 simulations use a
5 ms minimum RTO, the DPDK testbed 2 ms): a registration of
``TransportConfig`` itself with those kwargs as its registry defaults.  A
scenario's :class:`~repro.scenario.spec.TransportSpec` names a profile
(``default`` when it names none) and may override individual fields on top
of it.  The transport *protocol* (dctcp / cubic / reno) is resolved
separately through :mod:`repro.netsim.transport.factory`.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.netsim.transport.base import TransportConfig
from repro.registry import Registry
from repro.scenario.spec import TransportSpec

TRANSPORT_PROFILES: Registry[Callable[..., TransportConfig]] = Registry(
    "transport profile")


def register_transport_profile(name: str, config: Mapping[str, object],
                               override: bool = False) -> None:
    """Register TransportConfig kwargs under ``name``."""
    # Validate eagerly so a bad profile fails at registration, not mid-run.
    TransportConfig(**dict(config))
    TRANSPORT_PROFILES.register(name, TransportConfig, defaults=config,
                                override=override)


unregister_transport_profile = TRANSPORT_PROFILES.unregister
available_transport_profiles = TRANSPORT_PROFILES.names


def make_transport_config(spec: TransportSpec) -> TransportConfig:
    """Resolve a TransportSpec into a concrete TransportConfig."""
    return TRANSPORT_PROFILES.make(spec.profile or "default", **spec.config)


# ----------------------------------------------------------------------
# Built-in profiles
# ----------------------------------------------------------------------
register_transport_profile("default", {})
#: The paper's ns-3 large-scale simulations (Section 6.4).
register_transport_profile("paper_sim", {"min_rto": 5e-3})
#: The paper's DPDK software-switch testbed (Section 6.2).
register_transport_profile("testbed", {"min_rto": 2e-3})
