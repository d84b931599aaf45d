"""Scheme names -> buffer-manager factories.

Experiments, scenarios and the CLI refer to schemes by name (``"dt"``,
``"occamy"``, ``"abm"``, ``"pushout"``, ...); this :class:`~repro.registry.
Registry` -- the one registry class every named factory goes through --
turns those names plus keyword arguments into configured
:class:`~repro.core.base.BufferManager` instances.

Every registration may carry *default keyword arguments* -- the paper's
parameter choices live here (DT alpha=1, ABM alpha=2, Occamy alpha=8), so
``make_buffer_manager("occamy")`` is the single source of truth for a
paper-configured scheme.  Call-site kwargs override the registered defaults.
A variant that only changes defaults is a registration, not a subclass:
``occamy_longest`` is :class:`~repro.core.occamy.Occamy` with the Fig. 21
longest-queue victim policy.

Registering a name twice is an error unless ``override=True`` is passed.
"""

from __future__ import annotations

from typing import Callable

from repro.core.abm import ABM
from repro.core.base import BufferManager
from repro.core.dt import DynamicThreshold
from repro.core.occamy import Occamy
from repro.core.pushout import Pushout
from repro.core.static import CompletePartitioning, CompleteSharing, StaticThreshold
from repro.registry import Registry

SCHEMES: Registry[Callable[..., BufferManager]] = Registry(
    "buffer management scheme")

register_scheme = SCHEMES.register
unregister_scheme = SCHEMES.unregister
available_schemes = SCHEMES.names
scheme_defaults = SCHEMES.defaults
make_buffer_manager = SCHEMES.make


# ----------------------------------------------------------------------
# Built-in schemes (defaults are the paper's parameter choices, Section 6.2)
# ----------------------------------------------------------------------
register_scheme("dt", DynamicThreshold, defaults={"alpha": 1.0})
register_scheme("abm", ABM, defaults={"alpha": 2.0})
register_scheme("pushout", Pushout)
register_scheme("occamy", Occamy, defaults={"alpha": 8.0})
register_scheme("occamy_longest", Occamy,
                defaults={"alpha": 8.0, "victim_policy": "longest"})
register_scheme("complete_sharing", CompleteSharing)
register_scheme("complete_partitioning", CompletePartitioning)
register_scheme("static_threshold", StaticThreshold)
