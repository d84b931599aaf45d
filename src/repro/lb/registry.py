"""The load-balancer registry: names -> per-switch policy factories.

The fifth scenario registry, shaped exactly like the scheme registry
(:mod:`repro.core.registry`): registrations carry default keyword arguments
(the literature's parameter choice -- flowlet gap ~ one fabric RTT), name
collisions raise unless ``override=True``, and :func:`make_load_balancer`
merges call-site kwargs over the defaults.

Factories return a **fresh instance per call**: the runner binds one policy
object per switch, so flowlet tables are never shared across switches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.lb.base import EcmpPassthrough, FlowletBalancer, LoadBalancer

_FACTORIES: Dict[str, Callable[..., LoadBalancer]] = {}
_DEFAULTS: Dict[str, Dict[str, object]] = {}


def register_load_balancer(
    name: str,
    factory: Callable[..., LoadBalancer],
    defaults: Optional[Mapping[str, object]] = None,
    override: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    Args:
        name: policy name (non-empty).
        factory: callable (usually the policy class) returning a fresh
            :class:`~repro.lb.base.LoadBalancer` per call.
        defaults: default keyword arguments applied by
            :func:`make_load_balancer`; call-site kwargs take precedence.
        override: allow replacing an existing registration.  Without it a
            name collision raises :class:`ValueError`.
    """
    if not name:
        raise ValueError("load balancer name must be non-empty")
    if name in _FACTORIES and not override:
        raise ValueError(
            f"load balancer {name!r} is already registered; "
            "pass override=True to replace it"
        )
    _FACTORIES[name] = factory
    _DEFAULTS[name] = dict(defaults or {})


def unregister_load_balancer(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    _FACTORIES.pop(name, None)
    _DEFAULTS.pop(name, None)


def available_load_balancers() -> List[str]:
    """Names of all registered load balancers, sorted."""
    return sorted(_FACTORIES)


def make_load_balancer(name: str, **kwargs) -> LoadBalancer:
    """Instantiate the policy registered under ``name`` (fresh per call).

    The registered default kwargs are applied first; explicit ``kwargs``
    override them.

    Raises:
        KeyError: if no policy with that name is registered.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown load balancer {name!r}; "
            f"available: {', '.join(available_load_balancers())}"
        ) from None
    merged = {**_DEFAULTS[name], **kwargs}
    return factory(**merged)


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
register_load_balancer("ecmp", EcmpPassthrough)
# Default gap ~ one fat-tree base RTT: long enough that packets inside a
# window-paced burst stay together, short enough to re-balance between
# bursts.
register_load_balancer("flowlet", FlowletBalancer, defaults={"gap": 100e-6})
