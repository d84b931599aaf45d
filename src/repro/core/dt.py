"""Dynamic Threshold (DT) -- the de facto non-preemptive buffer manager.

DT (Choudhury & Hahne, ToN 1998) limits every queue to a threshold that is
proportional to the *free* buffer::

    T(t) = alpha * (B - sum_i q_i(t))

A larger ``alpha`` lets a queue absorb more of the buffer (higher efficiency)
but reserves less headroom for newly active queues (lower agility/fairness).
In the steady state with ``N`` congested queues the reserved free buffer is
``B / (1 + alpha * N)`` (Eq. 2 of the paper).
"""

from __future__ import annotations

from itertools import chain

from repro.core.base import (
    ACCEPT,
    REJECT_BUFFER_FULL,
    REJECT_OVER_THRESHOLD,
    AdmissionDecision,
    BufferManager,
    QueueView,
)


class DynamicThreshold(BufferManager):
    """The Dynamic Threshold scheme with a per-queue overridable ``alpha``."""

    name = "dt"

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        #: Effective per-queue alphas (in queue order) and the smallest of
        #: them; refreshed on attach and on every ``alpha`` or
        #: ``alpha_override`` write.
        self._alphas = []
        self._alpha_min = alpha
        self.alpha = alpha

    @property
    def alpha(self) -> float:
        """The default alpha; writing it re-derives the per-queue alphas."""
        return self._alpha

    @alpha.setter
    def alpha(self, alpha: float) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self._alpha = alpha
        self.on_queue_alpha_changed()

    def threshold(self, queue: QueueView, now: float) -> float:
        # Hot path: the effective alpha comes from the attach-time cache.
        # alpha > 0, but a per-queue alpha_override may be non-positive, so
        # the product still clamps at zero.
        switch = self.switch
        if switch is None:
            self._require_switch()
        value = self._alphas[queue.queue_id] * switch.cell_pool.free_bytes
        return value if value > 0.0 else 0.0

    def admit(self, queue: QueueView, packet_bytes: int, now: float) -> AdmissionDecision:
        # Same decision as the base implementation, but the free buffer is
        # read once and shared between the fit check and the threshold.
        switch = self.switch
        if switch is None:
            self._require_switch()
        free = switch.cell_pool.free_bytes
        if packet_bytes > free:
            return REJECT_BUFFER_FULL
        limit = self._alphas[queue.queue_id] * free
        if limit < 0.0:
            limit = 0.0
        if queue.length_bytes + packet_bytes > limit:
            return REJECT_OVER_THRESHOLD
        return ACCEPT

    # -- Expulsion-engine queries: O(1) idle proof + fused victim scans ----
    def attach(self, switch) -> None:
        super().attach(switch)
        self.on_queue_alpha_changed()

    def on_queue_alpha_changed(self) -> None:
        switch = self.switch
        if switch is None:  # detached: attach() refreshes
            return
        default_alpha = self.alpha
        self._alphas = [
            default_alpha if queue.alpha_override is None else queue.alpha_override
            for queue in switch.queue_views()]
        self._alpha_min = min(self._alphas)

    def proves_none_over_allocated(self) -> bool:
        # q_i <= U <= alpha_min * F <= alpha_i * F = T_i for every queue; see
        # repro.core.expulsion for why U >= q_i at cell granularity.  Same
        # float product as the comparators, so rounding cannot disagree.
        pool = self.switch.cell_pool
        return pool.used_bytes <= self._alpha_min * pool.free_bytes

    def first_over_allocated(self, start: int, now: float):
        # The free-buffer term is shared by every queue; read it once.
        queues = self.switch.queue_views()
        alphas = self._alphas
        free = self.switch.cell_pool.free_bytes
        for index in chain(range(start, len(queues)), range(start)):
            limit = alphas[index] * free
            if queues[index].length_bytes > (limit if limit > 0.0 else 0.0):
                return index
        return None

    def longest_over_allocated(self, now: float):
        alphas = self._alphas
        free = self.switch.cell_pool.free_bytes
        best = None
        best_length = -1
        for index, queue in enumerate(self.switch.queue_views()):
            length = queue.length_bytes
            if length > best_length:
                limit = alphas[index] * free
                if length > (limit if limit > 0.0 else 0.0):
                    best = index
                    best_length = length
        return best

    # ------------------------------------------------------------------
    # Analytical helpers (used by experiments and tests)
    # ------------------------------------------------------------------
    def steady_state_free_buffer(self, n_congested: int, buffer_bytes: float) -> float:
        """Reserved free buffer with ``n_congested`` saturated queues (Eq. 2)."""
        if n_congested < 0:
            raise ValueError("number of congested queues cannot be negative")
        return buffer_bytes / (1.0 + self.alpha * n_congested)

    def steady_state_queue_length(self, n_congested: int, buffer_bytes: float) -> float:
        """Per-queue steady-state occupancy with ``n_congested`` saturated queues."""
        if n_congested <= 0:
            raise ValueError("need at least one congested queue")
        free = self.steady_state_free_buffer(n_congested, buffer_bytes)
        return self.alpha * free

    def describe(self) -> str:
        return f"dt(alpha={self.alpha})"
