"""Seeded random-number helpers.

Every experiment takes a single integer seed; components that need randomness
derive independent child streams from it so that adding a new random consumer
does not perturb existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Sequence


class SeededRNG:
    """A thin wrapper around :class:`random.Random` with derived sub-streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def child(self, name: str) -> "SeededRNG":
        """Derive an independent, reproducible child stream keyed by ``name``.

        The derivation uses a cryptographic hash rather than Python's builtin
        ``hash`` so child streams are identical across processes (the builtin
        string hash is salted per interpreter run).
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        derived = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
        return SeededRNG(derived)

    # Convenience passthroughs -----------------------------------------
    def random(self) -> float:
        return self._random.random()

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def choice(self, seq: Sequence):
        return self._random.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._random.shuffle(seq)

    def sample(self, seq: Sequence, k: int) -> list:
        return self._random.sample(seq, k)

    def poisson_interarrivals(self, rate_per_sec: float) -> Iterator[float]:
        """Yield exponential inter-arrival times for a Poisson process."""
        if rate_per_sec <= 0:
            raise ValueError("rate must be positive")
        while True:
            yield self._random.expovariate(rate_per_sec)
