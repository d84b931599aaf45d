#!/usr/bin/env python3
"""Example: the buffer-choking problem and how Occamy mitigates it.

High-priority (latency-sensitive) incast queries share an egress port with
low-priority long-lived background flows under strict-priority scheduling --
the Section 3.1 / Figure 15 scenario.  Because the low-priority queues drain
slowly (they only get leftover bandwidth), a non-preemptive buffer manager
cannot reclaim their buffer in time and the high-priority traffic suffers.

Run it with::

    python examples/priority_isolation.py
"""

from repro.core import ABM, DynamicThreshold, Occamy, Pushout
from repro.netsim.transport.base import TransportConfig
from repro.sim.rng import SeededRNG
from repro.sim.units import GBPS
from repro.topology import SingleSwitchTopology
from repro.workloads import FlowSpec, IncastQueryGenerator, number_flows


def build_flows(topo, rng, duration=0.02, with_background=True):
    """High-priority queries to host 0 plus low-priority long flows to host 0."""
    query_size = int(1.5 * topo.buffer_bytes)
    flows = IncastQueryGenerator(
        clients=[0], servers=topo.hosts[1:], query_size_bytes=query_size,
        fanout=14, queries_per_second=400, rng=rng, priority=0,
    ).generate(duration=duration)
    if with_background:
        long_flow_bytes = int(10 * GBPS / 8 * duration)
        for sender in (1, 2):
            for _ in range(7):
                flows.append(FlowSpec(src=sender, dst=0, size_bytes=long_flow_bytes,
                                      start_time=0.0, priority=1))
    return number_flows(flows)


def run_scheme(label, manager_factory, with_background, seed=3):
    topo = SingleSwitchTopology(
        num_hosts=8,
        manager_factory=manager_factory,
        link_rate_bps=10 * GBPS,
        queues_per_port=2,           # one high-priority + one low-priority queue
        scheduler="strict",
        ecn_threshold_bytes=65 * 1500,
    )
    # Commodity-chip style per-queue alpha: generous for the HP class, tight
    # for the LP class (exactly the paper's configuration).
    for queue in topo.switch.queue_views():
        queue.alpha_override = 8.0 if queue.class_index == 0 else 1.0

    flows = build_flows(topo, SeededRNG(seed), with_background=with_background)
    topo.network.set_transport_config(TransportConfig(min_rto=2e-3))
    query_flows = [f for f in flows if f.query_id is not None]
    bg_flows = [f for f in flows if f.query_id is None]
    topo.network.inject_flows(query_flows, transport="dctcp")
    topo.network.inject_flows(bg_flows, transport="cubic")
    topo.network.run(until=0.2)
    return topo.network.flow_stats.average_qct() * 1e3


def main():
    schemes = [
        ("DT", lambda: DynamicThreshold(alpha=1.0)),
        ("ABM", lambda: ABM(alpha=2.0)),
        ("Pushout", lambda: Pushout()),
        ("Occamy", lambda: Occamy(alpha=8.0)),
    ]
    print("Buffer choking: high-priority queries vs low-priority background")
    print("sharing one egress port under strict priority\n")
    print(f"{'scheme':10s} {'QCT w/o background':>20s} {'QCT w/ background':>20s} {'degradation':>12s}")
    for label, factory in schemes:
        without = run_scheme(label, factory, with_background=False)
        with_bg = run_scheme(label, factory, with_background=True)
        print(f"{label:10s} {without:17.3f} ms {with_bg:17.3f} ms "
              f"{with_bg / max(1e-9, without):11.2f}x")
    print("\nIdeally the low-priority background should not affect the high-priority")
    print("queries at all; preemptive schemes (Occamy, Pushout) come closest.")


if __name__ == "__main__":
    main()
