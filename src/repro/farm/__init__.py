"""Run farms: dispatch campaign runs across local worker subprocesses."""

from repro.farm.farm import (
    RunFarm,
    SubprocessFarm,
    WorkerSlot,
    make_farm,
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
    "SubprocessFarm",
    "WorkerLossError",
    "WorkerSlot",
    "make_farm",
    "parse_response",
    "ping_request",
    "run_request",
    "worker_main",
]
