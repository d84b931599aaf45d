"""Transport protocol names -> sender classes."""

from __future__ import annotations

from typing import Type

from repro.netsim.transport.base import SenderTransport
from repro.netsim.transport.cubic import CubicTransport
from repro.netsim.transport.dctcp import DctcpTransport
from repro.netsim.transport.reno import RenoTransport
from repro.registry import Registry

TRANSPORT_PROTOCOLS: Registry[Type[SenderTransport]] = Registry("transport")
TRANSPORT_PROTOCOLS.register("reno", RenoTransport)
TRANSPORT_PROTOCOLS.register("dctcp", DctcpTransport)
TRANSPORT_PROTOCOLS.register("cubic", CubicTransport)


def make_transport(name: str) -> Type[SenderTransport]:
    """Return the sender class registered under ``name`` (case-insensitive)."""
    return TRANSPORT_PROTOCOLS.get(name.lower())
