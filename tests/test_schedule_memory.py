"""A bare-switch run's arrival state does not grow with its length.

Packet-level workloads are lazy schedules merged as the run reaches them, so
a stream eight times as long must not raise the run's traced memory peak by
more than a fixed slack.  Nothing else may grow with the packet count
either: the stream stays below line rate, so no queue builds and nothing is
dropped, and the queue trace is off.
"""

import gc
import tracemalloc

from repro.scenario import ScenarioSpec, run_scenario

#: Far below what a per-packet copy costs: 8x of the short run below adds
#: ~2,900 arrivals, and one retained ``(time, size, port)`` tuple is 64 bytes.
SLACK_BYTES = 64 * 1024


def _peak_bytes(duration):
    spec = ScenarioSpec.from_dict({
        "name": "long-stream",
        "scheme": {"name": "occamy", "kwargs": {}},
        "topology": {"kind": "raw_switch", "params": {
            "num_ports": 2, "port_rate_bps": 10e9,
            "buffer_bytes": 200_000, "trace_queues": False}},
        "workloads": [
            {"kind": "packet_stream",
             "params": {"rate_bps": 2.5e9, "port": 0}},
            {"kind": "packet_stream",
             "params": {"rate_bps": 2.5e9, "port": 1, "start_time": 1e-6}},
            {"kind": "packet_burst",
             "params": {"burst_bytes": 15_000, "rate_bps": 10e9, "port": 1,
                        "start_time": duration / 2}},
        ],
        "duration": duration,
        "run_slack": 1.0,
    })
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(spec)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.switch.stats.dropped_packets == 0
    return peak, result.switch.stats.arrived_packets


def test_eight_times_longer_stream_costs_no_more_memory():
    _peak_bytes(1e-3)  # warm: imports and registry caches are not the run's
    short, short_packets = _peak_bytes(1e-3)
    long, long_packets = _peak_bytes(8e-3)
    assert long_packets - short_packets > 2_500
    assert long - short < SLACK_BYTES, (short, long)
