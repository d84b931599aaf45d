"""Run farms: dispatch campaign runs across local worker processes."""

from repro.farm.farm import (
    RunFarm,
    WorkerSlot,
    make_farm,
    subprocess_slots,
)
from repro.farm.protocol import (
    PROTOCOL_VERSION,
    WorkerLossError,
    parse_response,
    ping_request,
    run_request,
    worker_main,
)

__all__ = [
    "PROTOCOL_VERSION",
    "RunFarm",
    "WorkerLossError",
    "WorkerSlot",
    "make_farm",
    "parse_response",
    "ping_request",
    "run_request",
    "subprocess_slots",
    "worker_main",
]
