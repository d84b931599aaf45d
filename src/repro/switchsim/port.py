"""Egress ports: a set of class queues, a scheduler and a line rate."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.units import transmission_time
from repro.switchsim.queue import SwitchQueue
from repro.switchsim.scheduler import Scheduler


class EgressPort:
    """An egress port of the shared-memory switch.

    The port owns its class queues and scheduler.  Transmission timing is
    orchestrated by the switch: the port only tracks whether its wire is busy
    and which descriptor is currently being serialized.
    """

    def __init__(self, port_id: int, rate_bps: float, scheduler: Scheduler) -> None:
        if rate_bps <= 0:
            raise ValueError("port rate must be positive")
        self.port_id = port_id
        #: Serialization delay by packet size at the current rate, filled by
        #: the switch's transmit path; the ``rate_bps`` setter clears it.
        self.delay_by_size: Dict[int, float] = {}
        self.rate_bps = rate_bps
        self.scheduler = scheduler
        self.queues: List[SwitchQueue] = []
        self.single_queue: SwitchQueue | None = None
        self.busy = False
        #: In-flight transmission state (valid while ``busy``): the queue the
        #: packet came from, its descriptor and the serialization delay.  The
        #: switch stores these here and schedules a single prebuilt bound
        #: callback (``finish_callback``) instead of allocating a closure per
        #: transmitted packet.
        self.tx_queue: SwitchQueue | None = None
        self.tx_descriptor = None
        self.tx_delay = 0.0
        self.finish_callback = None
        #: Cumulative transmitted statistics.
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        #: Time the port finished its last transmission (for utilization stats).
        self.last_tx_end = 0.0
        self.busy_time = 0.0

    @property
    def rate_bps(self) -> float:
        return self._rate_bps

    @rate_bps.setter
    def rate_bps(self, rate_bps: float) -> None:
        self._rate_bps = rate_bps
        self.delay_by_size.clear()

    @property
    def rate_bytes_per_sec(self) -> float:
        return self.rate_bps / 8.0

    def add_queue(self, queue: SwitchQueue) -> None:
        if queue.port_id != self.port_id:
            raise ValueError(
                f"queue {queue.queue_id} belongs to port {queue.port_id}, "
                f"not {self.port_id}"
            )
        self.queues.append(queue)
        #: With exactly one queue, scheduler selection degenerates to "serve
        #: it if non-empty"; the switch uses this to skip the scheduler call.
        self.single_queue = self.queues[0] if len(self.queues) == 1 else None

    def select_queue(self) -> Optional[SwitchQueue]:
        """Ask the scheduler for the next queue to serve."""
        return self.scheduler.select(self.queues)

    def serialization_delay(self, size_bytes: int) -> float:
        """Wire time for a packet of ``size_bytes`` at this port's rate."""
        return transmission_time(size_bytes, self.rate_bps)

    def backlog_bytes(self) -> int:
        return sum(queue.length_bytes for queue in self.queues)
