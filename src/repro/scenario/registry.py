"""A small generic name -> entry registry with collision protection.

Shared by the scenario layer's topology, workload and transport-profile
registries.  The scheme registry in :mod:`repro.core.registry` predates this
helper and keeps its function-based API, but follows the same rules:
registering an existing name raises unless ``override=True``.
"""

from __future__ import annotations

from typing import Dict, Generic, List, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Maps names to entries; collisions raise unless explicitly overridden."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, name: str, entry: T, override: bool = False) -> None:
        if not name:
            raise ValueError(f"{self.kind} name must be non-empty")
        if name in self._entries and not override:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "pass override=True to replace it"
            )
        self._entries[name] = entry

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

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
