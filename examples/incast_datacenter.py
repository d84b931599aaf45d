#!/usr/bin/env python3
"""End-to-end example: incast queries + web-search background over DCTCP.

This reproduces, at small scale, the paper's DPDK-testbed experiment
(Section 6.2 / Figure 13): a partition-aggregate application issues incast
queries to a set of servers while web-search background flows load the same
shared-memory switch.  The example compares query completion times (QCT)
under DT and Occamy.

Run it with::

    python examples/incast_datacenter.py
"""

from repro.core import DynamicThreshold, Occamy
from repro.netsim.transport.base import TransportConfig
from repro.sim.rng import SeededRNG
from repro.sim.units import GBPS
from repro.topology import SingleSwitchTopology
from repro.workloads import (
    IncastQueryGenerator,
    PoissonFlowGenerator,
    WEB_SEARCH_DISTRIBUTION,
    flows_per_second_for_load,
    number_flows,
)


def run_scheme(label, manager_factory, seed=1):
    topo = SingleSwitchTopology(
        num_hosts=8,
        manager_factory=manager_factory,
        link_rate_bps=10 * GBPS,
        buffer_kb_per_port_per_gbps=5.12,   # Broadcom-Tomahawk-like shallow buffer
        ecn_threshold_bytes=65 * 1500,      # DCTCP ECN threshold (65 MTU)
    )
    rng = SeededRNG(seed)

    # Incast queries: host 0 queries the 7 other hosts; the total response is
    # ~80% of the shared buffer, the regime where buffer management matters.
    query_size = int(0.8 * topo.buffer_bytes)
    queries = IncastQueryGenerator(
        clients=[0], servers=topo.hosts[1:], query_size_bytes=query_size,
        fanout=14, queries_per_second=600, rng=rng.child("queries"),
    ).generate(duration=0.02)

    # Web-search background at 50% load between random host pairs.
    bg_rate = flows_per_second_for_load(
        0.5, 10 * GBPS, WEB_SEARCH_DISTRIBUTION.mean(), num_senders=1)
    background = PoissonFlowGenerator(
        topo.hosts, WEB_SEARCH_DISTRIBUTION,
        flows_per_second=bg_rate * len(topo.hosts), rng=rng.child("bg"),
    ).generate(duration=0.02)

    topo.network.set_transport_config(TransportConfig(min_rto=2e-3))
    topo.network.inject_flows(number_flows(queries + background),
                              transport="dctcp")
    topo.network.run(until=0.2)

    stats = topo.network.flow_stats
    print(f"{label:10s} avg QCT {stats.average_qct() * 1e3:7.3f} ms   "
          f"p99 QCT {stats.p99_qct() * 1e3:7.3f} ms   "
          f"bg FCT {stats.average_fct(query_traffic=False) * 1e3:6.3f} ms   "
          f"drops {topo.switch.stats.dropped_packets:4d}   "
          f"expelled {topo.switch.stats.expelled_packets:4d}   "
          f"RTOs {topo.network.total_timeouts():3d}")


def main():
    print("Incast queries (80% of buffer) + web-search background at 50% load")
    print("8 hosts x 10 Gbps, 410 KB shared buffer, DCTCP\n")
    run_scheme("DT a=1", lambda: DynamicThreshold(alpha=1.0))
    run_scheme("Occamy", lambda: Occamy(alpha=8.0))
    print("\nOccamy admits the bursts with a large alpha and reclaims buffer from")
    print("the background queues, avoiding the retransmission timeouts that")
    print("dominate DT's tail QCT.")


if __name__ == "__main__":
    main()
