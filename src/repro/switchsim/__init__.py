"""Cell-granularity model of an on-chip shared-memory switch traffic manager.

The model follows the architecture of Section 2.1 of the paper:

* a shared packet buffer divided into fixed-size **cells**, with a free-cell
  pointer list (:mod:`repro.switchsim.cells`);
* per-port, per-class **queues** organised as linked lists of packet
  descriptors (:mod:`repro.switchsim.queue`);
* an **admission** module consulting a buffer-management scheme from
  :mod:`repro.core`;
* per-port **schedulers** (FIFO, DRR, strict priority);
* a **memory-bandwidth** token bucket and, for preemptive schemes, the
  expulsion engine that consumes only redundant bandwidth;
* detailed drop/occupancy/utilization **statistics**.
"""

from repro.switchsim.packet import Packet
from repro.switchsim.cells import CellPool, PacketDescriptor
from repro.switchsim.queue import SwitchQueue
from repro.switchsim.scheduler import (
    DeficitRoundRobinScheduler,
    FifoScheduler,
    StrictPriorityScheduler,
    make_scheduler,
)
from repro.switchsim.port import EgressPort
from repro.switchsim.stats import SwitchStats
from repro.switchsim.switch import SharedMemorySwitch, SwitchConfig
from repro.switchsim.pipeline import DequeuePipeline, PipelineOperation

__all__ = [
    "CellPool",
    "DeficitRoundRobinScheduler",
    "DequeuePipeline",
    "EgressPort",
    "FifoScheduler",
    "Packet",
    "PacketDescriptor",
    "PipelineOperation",
    "SharedMemorySwitch",
    "StrictPriorityScheduler",
    "SwitchConfig",
    "SwitchQueue",
    "SwitchStats",
    "make_scheduler",
]
