"""Factory mapping transport names to sender classes."""

from __future__ import annotations

from typing import Dict, Type

from repro.netsim.transport.base import SenderTransport
from repro.netsim.transport.cubic import CubicTransport
from repro.netsim.transport.dctcp import DctcpTransport
from repro.netsim.transport.reno import RenoTransport

_TRANSPORTS: Dict[str, Type[SenderTransport]] = {
    "reno": RenoTransport,
    "dctcp": DctcpTransport,
    "cubic": CubicTransport,
}


def make_transport(name: str) -> Type[SenderTransport]:
    """Return the sender class registered under ``name``."""
    try:
        return _TRANSPORTS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown transport {name!r}; available: {', '.join(sorted(_TRANSPORTS))}"
        ) from None
