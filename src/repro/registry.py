"""The one name -> factory registry.

Every named part of a scenario -- buffer-management schemes, topologies,
workloads, transport profiles, load balancers -- and every other named
factory (simulation kernels, transport protocols, perf cases) is looked up
through a :class:`Registry`.  An entry may carry *default keyword
arguments*: :meth:`Registry.make` applies them first and call-site kwargs
over them, so a registration like ``occamy_longest`` = ``Occamy`` with
``{"alpha": 8.0, "victim_policy": "longest"}`` needs no subclass.

Registering an existing name raises unless ``override=True``: a silent
overwrite would let a plugin shadow a built-in entry unnoticed.

Stdlib only, so every layer (``core``, ``lb``, ``sim``, ``scenario``) can
import it without a cycle.
"""

from __future__ import annotations

import inspect
from typing import Dict, Generic, List, Mapping, Optional, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Maps names to entries; collisions raise unless explicitly overridden."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        self._defaults: Dict[str, Dict[str, object]] = {}

    def register(self, name: str, entry: T,
                 defaults: Optional[Mapping[str, object]] = None, *,
                 override: bool = False) -> None:
        if not name:
            raise ValueError(f"{self.kind} name must be non-empty")
        if name in self._entries and not override:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "pass override=True to replace it"
            )
        self._entries[name] = entry
        self._defaults[name] = dict(defaults or {})

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)
        self._defaults.pop(name, None)

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def defaults(self, name: str) -> Dict[str, object]:
        """The registered default kwargs of ``name`` (a copy)."""
        self.get(name)
        return dict(self._defaults[name])

    def make(self, name: str, /, *args, **kwargs):
        """Call the factory of ``name``: registered defaults first, then
        ``kwargs`` over them."""
        factory = self.get(name)
        return factory(*args, **{**self._defaults[name], **kwargs})

    def check(self, name: str, kwargs: Mapping[str, object], section: str,
              *args, **supplied) -> None:
        """Raise unless :meth:`make` could call ``name`` with ``kwargs``.

        ``section`` is the dotted key of ``kwargs`` in the document being
        checked (``scheme.kwargs``).  ``args`` / ``supplied`` stand in for
        the positional and keyword arguments the caller passes itself (a
        workload's context, a topology's manager factory): a key of
        ``kwargs`` that names one of them, a key no parameter takes and a
        required parameter nobody passes each raise a ``ValueError`` naming
        the key.
        """
        signature = inspect.signature(self.get(name))
        merged = {**self._defaults[name], **kwargs}
        try:
            signature.bind(*args, **supplied, **merged)
            return
        except TypeError:
            pass
        parameters = list(signature.parameters.values())
        reserved = [p.name for p in parameters[:len(args)]] + list(supplied)
        for key in reserved:
            if key in merged:
                raise ValueError(f"{section}.{key}: supplied by the runner")
        takes = [p.name for p in parameters
                 if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
                 and p.name not in reserved]
        unknown = sorted(set(merged) - set(takes))
        if unknown:
            raise ValueError(f"{section}.{unknown[0]}: {name} takes "
                             f"{', '.join(takes)}")
        missing = [p.name for p in parameters if p.name in takes
                   and p.name not in merged and p.default is p.empty]
        raise ValueError(f"{section}: {name} needs {', '.join(missing)}")
