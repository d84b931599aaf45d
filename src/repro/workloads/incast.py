"""Incast / query (partition-aggregate) traffic generation.

A query is a request fanned out from a client to ``fanout`` servers, each of
which responds with ``query_size / fanout`` bytes simultaneously.  The query
completion time (QCT) is the time until the last response finishes.  Queries
arrive according to a Poisson process.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence

from repro.sim.rng import SeededRNG
from repro.workloads.spec import FlowSpec


class IncastQueryGenerator:
    """Generates incast queries from a set of servers towards client hosts.

    Query ids come from ``query_ids`` (a fresh 1, 2, ... count by default);
    generators that must not reuse each other's ids share one count.
    """

    def __init__(
        self,
        clients: Sequence[int],
        servers: Sequence[int],
        query_size_bytes: int,
        fanout: int,
        queries_per_second: float,
        rng: SeededRNG,
        priority: int = 0,
        query_ids: Optional[Iterator[int]] = None,
    ) -> None:
        if not clients or not servers:
            raise ValueError("need at least one client and one server")
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        if query_size_bytes < fanout:
            raise ValueError("query size must be at least one byte per responder")
        if queries_per_second <= 0:
            raise ValueError("query rate must be positive")
        self.clients = list(clients)
        self.servers = list(servers)
        self.query_size_bytes = query_size_bytes
        self.fanout = fanout
        self.queries_per_second = queries_per_second
        self.rng = rng
        self.priority = priority
        self.query_ids = itertools.count(1) if query_ids is None else query_ids

    def _pick_servers(self, client: int) -> List[int]:
        candidates = [s for s in self.servers if s != client]
        if len(candidates) >= self.fanout:
            return self.rng.sample(candidates, self.fanout)
        # Fewer distinct servers than the fanout: reuse servers round-robin,
        # which still produces `fanout` simultaneous responses.
        picks = []
        while len(picks) < self.fanout:
            picks.extend(candidates)
        return picks[: self.fanout]

    def make_query(self, client: int, start_time: float) -> List[FlowSpec]:
        """The response flows of a single query issued by ``client``."""
        query_id = next(self.query_ids)
        per_flow = max(1, self.query_size_bytes // self.fanout)
        flows = []
        for server in self._pick_servers(client):
            flows.append(
                FlowSpec(
                    src=server,
                    dst=client,
                    size_bytes=per_flow,
                    start_time=start_time,
                    priority=self.priority,
                    query_id=query_id,
                )
            )
        return flows

    def generate(self, duration: float, start_time: float = 0.0) -> List[FlowSpec]:
        """All query response flows within ``[start_time, start_time + duration)``.

        Every client runs an independent Poisson query process at
        ``queries_per_second``.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        flows: List[FlowSpec] = []
        for client in self.clients:
            t = start_time
            while True:
                t += self.rng.expovariate(self.queries_per_second)
                if t >= start_time + duration:
                    break
                flows.extend(self.make_query(client, t))
        return flows
