"""ABM: Active Buffer Management (Addanki et al., SIGCOMM 2022), simplified.

ABM keeps DT's proportionality to the free buffer but additionally divides the
allowance by the number of *active* queues of the same priority and scales it
by the queue's normalized drain rate::

    T_i(t) = alpha_p / n_active(p) * (B - sum_j q_j(t)) * (mu_i / C)

where ``mu_i`` is queue *i*'s recent dequeue (drain) rate and ``C`` the port
capacity.  Dividing by the number of active queues bounds the total buffer
occupancy independently of the workload, and scaling by the drain rate bounds
how long a queue can take to drain -- which is what gives ABM its performance
isolation properties.

The reproduction uses the drain-rate estimate maintained by the switch (an
exponentially weighted average of bytes dequeued per second, normalized by the
port rate).  Queues that have never dequeued anything (newly active queues)
are given a normalized drain rate of 1 so they are not starved before their
first transmission, matching the "unscheduled packet" handling in the ABM
paper's artifact.
"""

from __future__ import annotations

from typing import List

from repro.core.base import BufferManager, QueueView


class ABM(BufferManager):
    """Active Buffer Management with per-priority active-queue counting."""

    name = "abm"

    def __init__(self, alpha: float = 2.0, min_drain_fraction: float = 0.05) -> None:
        super().__init__()
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0 < min_drain_fraction <= 1:
            raise ValueError("min_drain_fraction must be in (0, 1]")
        self.alpha = alpha
        #: Lower bound on the normalized drain rate so that very slowly
        #: draining queues still receive a nonzero allowance.
        self.min_drain_fraction = min_drain_fraction
        #: Per-port rate cache (bytes/sec), filled on :meth:`attach`; port
        #: rates are fixed for the life of a switch, so looking them up per
        #: admission decision is invariant work hoisted out of the hot path.
        self._port_rate_bytes: List[float] = []

    def attach(self, switch) -> None:
        super().attach(switch)
        self._port_rate_bytes = [port.rate_bps / 8.0 for port in switch.ports]

    def detach(self) -> None:
        super().detach()
        self._port_rate_bytes = []

    def on_port_rate_changed(self, port_id: int, rate_bps: float) -> None:
        """Keep the attach-time rate cache in sync with per-link retuning."""
        if self._port_rate_bytes:
            self._port_rate_bytes[port_id] = rate_bps / 8.0

    def threshold(self, queue: QueueView, now: float) -> float:
        # Hot path: the active-queue count is read from the switch's
        # incrementally maintained table and the port rate comes from the
        # attach-time cache.
        switch = self.switch
        if switch is None:
            self._require_switch()
        override = queue.alpha_override
        alpha = self.alpha if override is None else override
        n_active = switch._active_by_priority[queue.priority]
        if n_active < 1:
            n_active = 1
        value = (alpha / n_active * switch.cell_pool.free_bytes
                 * self._normalized_drain(queue))
        return value if value > 0.0 else 0.0

    def _normalized_drain(self, queue: QueueView) -> float:
        """Normalized drain rate in (0, 1]; inactive/new queues get 1.0."""
        port_rate_bytes = (
            self._port_rate_bytes[queue.port_id] if self._port_rate_bytes
            else self._require_switch().port_rate_bytes_per_sec(queue.port_id)
        )
        if port_rate_bytes <= 0:
            return 1.0
        estimate = queue.drain_rate_estimate
        if estimate <= 0:
            # A queue that has not dequeued anything yet (e.g. a newly active
            # queue hit by a burst) is treated as draining at full rate so it
            # is not starved before its first transmission.
            return 1.0
        fraction = estimate / port_rate_bytes
        if fraction < self.min_drain_fraction:
            fraction = self.min_drain_fraction
        return fraction if fraction < 1.0 else 1.0

    def describe(self) -> str:
        return f"abm(alpha={self.alpha})"
