"""Occamy: preemptive buffer management built from two simple components.

Occamy = **proactive admission** + **reactive expulsion** (Section 4):

* The proactive component is plain Dynamic Threshold with a *large* alpha
  (default 8), so only a small fraction of the buffer is reserved for newly
  active queues -- ``B / (1 + 8N)`` instead of ``B / (1 + N)`` -- which raises
  buffer efficiency.
* The reactive component actively expels packets from all queues whose length
  exceeds the admission threshold ``T(t)``, in round-robin order, using only
  redundant memory bandwidth.  The expulsion machinery itself lives in
  :mod:`repro.core.expulsion` and is instantiated by the switch; this class
  only carries its configuration (victim policy, bandwidth share).

Unlike Pushout, admission never waits for an expulsion: if the buffer is full
an arriving packet is simply dropped, and the reserved headroom from the
proactive component makes that rare.
"""

from __future__ import annotations

from repro.core.dt import DynamicThreshold


class Occamy(DynamicThreshold):
    """The Occamy buffer manager.

    Args:
        alpha: DT parameter for the proactive admission component.  The paper
            recommends 8 (Section 4.4/6.3).
        victim_policy: ``"round_robin"`` (the Occamy design) or ``"longest"``
            (the Figure 21 ablation that always drops from the longest
            over-allocated queue).
        expulsion_bandwidth_fraction: fraction of the switch's aggregate
            memory bandwidth used to generate expulsion tokens.  ``1.0`` means
            the token bucket is fed at full switching capacity, so expulsions
            can only use whatever forwarding leaves over -- the paper's
            redundant-bandwidth rule.
        max_drops_per_run: cap on head drops performed per engine invocation
            (keeps individual simulation events cheap).
    """

    name = "occamy"
    uses_expulsion_engine = True

    def __init__(
        self,
        alpha: float = 8.0,
        victim_policy: str = "round_robin",
        expulsion_bandwidth_fraction: float = 1.0,
        max_drops_per_run: int = 64,
    ) -> None:
        super().__init__(alpha=alpha)
        if victim_policy not in ("round_robin", "longest"):
            raise ValueError(f"unknown victim policy: {victim_policy!r}")
        if not 0 < expulsion_bandwidth_fraction <= 1.0:
            raise ValueError("expulsion_bandwidth_fraction must be in (0, 1]")
        if max_drops_per_run <= 0:
            raise ValueError("max_drops_per_run must be positive")
        self.victim_policy = victim_policy
        self.expulsion_bandwidth_fraction = expulsion_bandwidth_fraction
        self.max_drops_per_run = max_drops_per_run

    # ------------------------------------------------------------------
    # Analytical helpers (Section 4.4)
    # ------------------------------------------------------------------
    def max_fair_arrival_ratio(self, n_over_allocated: int, n_bursting: int) -> float:
        """Maximum ``R/V`` ratio for which buffer sharing stays fair (Eq. 3).

        ``R`` is the aggregate burst arrival rate, ``V`` the expulsion rate,
        ``n_over_allocated`` the number of over-allocated queues and
        ``n_bursting`` the number of queues receiving bursts.
        """
        if n_bursting <= 0:
            raise ValueError("need at least one bursting queue")
        if n_over_allocated < 0:
            raise ValueError("number of over-allocated queues cannot be negative")
        return 1.0 + (1.0 + self.alpha * n_over_allocated) / (self.alpha * n_bursting)

    def min_alpha_inverse(self, arrival_rate: float, expulsion_rate: float,
                          n_bursting: int, n_over_allocated: int) -> float:
        """Lower bound on ``1/alpha`` required for fairness (Eq. 4).

        A non-positive return value means any alpha preserves fairness.
        """
        if expulsion_rate <= 0:
            raise ValueError("expulsion rate must be positive")
        if n_bursting <= 0:
            raise ValueError("need at least one bursting queue")
        return (arrival_rate / expulsion_rate - 1.0) * n_bursting - n_over_allocated

    def describe(self) -> str:
        return (
            f"occamy(alpha={self.alpha}, victim={self.victim_policy}, "
            f"bw_fraction={self.expulsion_bandwidth_fraction})"
        )

