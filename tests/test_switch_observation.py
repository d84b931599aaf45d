"""What a switch observes, pinned sample by sample.

Run documents carry counters, not the queue trace or the per-drop samples
the packet-level figures read (Fig. 3 first drops, Fig. 7 utilisation at
drop time, Fig. 11 queue evolution), so a document sha256 cannot see a
change in them.  These digests can: each one is a sha256 over the ``repr``
of one observation stream of a small, heavily overloaded bare switch,
captured before the trace became a flat array and the drop bookkeeping was
written inline.  The spec is sized so every scheme drops, Pushout evicts
and both Occamy variants expel.

The trace digest reads thresholds as ``float``: a flat ``array('d')``
stores an ``int`` threshold (``static_threshold`` with ``threshold_bytes``)
as the equal float.
"""

import hashlib

import pytest

from repro.scenario import ScenarioSpec, run_scenario
from repro.sim.units import GBPS

DURATION = 300e-6

SCHEMES = {
    "dt": {},
    "abm": {},
    "pushout": {},
    "occamy": {},
    "occamy_longest": {},
    "static_threshold": {"threshold_bytes": 60_000},
}

#: Captured on the per-sample trace; see the module docstring.
DIGESTS = {
    "dt": {
        "trace": "6c8e6eaba0646f4f1ef34efee81498fe995a8012a7fbceae7380f026f59890f0",
        "utilization": "f7e6350d35e92991df724fb6596f8bc33b5c9840e18fb3c33132e24e365cf777",
        "first_drops": "980f79e06f17cfad9ba809918b1f87eb39f1f2c215023d1058c1dadb3a409a39",
        "drop_counts": "a04494ccf11862ed8d314696bf2ec747e602aeb5042057518d365760032524b0",
    },
    "abm": {
        "trace": "6fcd03177bcbbe777e6256d64633bd74a1b9ed1dc960ff15955d52e52a9f2d33",
        "utilization": "df13685ecdfacb6d275d24384229bbf53a8f7f45a96cef01b07920c5e817a9ef",
        "first_drops": "bd1474f6d44800527860177b5fe78e5c474316c43c9f1e83332ac6a546aa509b",
        "drop_counts": "463173d3dddc7d8b6cdc34f05550fe676169a2502ed2d94b7acaa07e007dea8c",
    },
    "pushout": {
        "trace": "08c9ebedfa8049fa37768c19af5ef3f0519570e65d2c2f370320842137d7b5fe",
        "utilization": "724b1df0381a063d0b50d870312931c0307caf9017051a6bfaf71a06494df217",
        "first_drops": "6aeaedaaeafa6efe2b49e31759b60e996a5f6979b4b22b966767822dece71823",
        "drop_counts": "b7dbeabf6788c77d37337a8f841a84d12c57f008cc2d28019b2bfdf8f6e77269",
    },
    "occamy": {
        "trace": "60db2a91bbd47dac469b99797fcb504ab7e6404f889b024f81b30b5d1927d310",
        "utilization": "12a7e0b2d26bba8053d34485e9d59bb4f2c87851ffa85dbc1c69a246bd01957d",
        "first_drops": "fb044408029db6b17009f59c75853cdf61be3fba4c5386acf1eaddb09162e74a",
        "drop_counts": "de19d0c4fa35ace25ce3427620eb0665a772e27eb14c7a9dd357b50e46822790",
    },
    "occamy_longest": {
        "trace": "0a4804376dec8330f7679b210b5d0d9665e1e9d579bbbf24d72af0b33a493003",
        "utilization": "c8dbb391709859e2b91ee0f4ea8577074f2782cd4d9b36a9045b4e3b94386a04",
        "first_drops": "499781c2d66e4e9ca2e136ed72245020aa5eaee3e9ec19a74a4df440122ddec5",
        "drop_counts": "f784298ab6181ce571533ad22fa4fe26960d9823e9bd76c8691c13c0851245b8",
    },
    "static_threshold": {
        "trace": "9f78594ec591f35a96ea5fbe61502b15b8d9937da7dbc6a77c8f810b10e5a567",
        "utilization": "85158fd389e6feed951127c4694cacd4a787c6c4978fa07b511ba7aa4167b1cf",
        "first_drops": "d857a1bdd7f3a434e8d6518aa97d61541b1e29fe34e7a710534cd16a5ffb9f2f",
        "drop_counts": "9580ec0d6c90074914b949eb1bde7654903ae89c44aa29d79e7fa7b5a5555a4d",
    },
}


def _spec(scheme: str, trace_queues: bool = True) -> ScenarioSpec:
    # Two 10 Gbps ports overloaded by streams, two hit by overlapping 40 Gbps
    # bursts, all in a 256 KiB buffer.
    workloads = [
        {"kind": "packet_stream",
         "params": {"rate_bps": rate, "port": port, "duration": DURATION}}
        for port, rate in ((0, 14 * GBPS), (1, 12 * GBPS))]
    for port, start in ((2, 40e-6), (3, 60e-6), (2, 160e-6), (3, 170e-6)):
        workloads.append({"kind": "packet_burst", "params": {
            "burst_bytes": 150_000, "rate_bps": 40 * GBPS, "port": port,
            "start_time": start}})
    return ScenarioSpec.from_dict({
        "name": f"observation-{scheme}",
        "scheme": {"name": scheme, "kwargs": SCHEMES[scheme]},
        "topology": {"kind": "raw_switch", "params": {
            "num_ports": 4, "port_rate_bps": 10 * GBPS,
            "buffer_bytes": 256 * 1024,
            "memory_bandwidth_bps": 2 * 4 * 10 * GBPS,
            "trace_queues": trace_queues,
        }},
        "workloads": workloads,
        "duration": DURATION,
        "run_slack": 1.0,
        "seed": 7,
    })


def _run(scheme: str, trace_queues: bool = True):
    return run_scenario(_spec(scheme, trace_queues)).switch.stats


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _observations(stats) -> dict:
    return {
        "trace": _digest([
            (sample.time, sample.queue_id, sample.length_bytes,
             float(sample.threshold_bytes))
            for sample in stats.queue_trace]),
        "utilization": _digest((stats.buffer_utilization_on_drop,
                                stats.bandwidth_utilization_on_drop)),
        "first_drops": _digest((sorted(stats.first_drop_time.items()),
                                sorted(stats.first_drop_queue_length.items()))),
        "drop_counts": _digest((sorted(stats.per_queue_drops.items()),
                                sorted(stats.drop_reasons.items()))),
    }


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_observations_match_pinned_digests(scheme):
    stats = _run(scheme)
    assert stats.dropped_packets > 0
    if scheme == "pushout":
        assert stats.evicted_packets > 0
    if scheme.startswith("occamy"):
        assert stats.expelled_packets > 0
    assert _observations(stats) == DIGESTS[scheme]


@pytest.mark.parametrize("scheme", ["dt", "pushout", "occamy"])
def test_untraced_switch_records_no_samples_and_drops_alike(scheme):
    traced, untraced = _run(scheme), _run(scheme, trace_queues=False)
    assert len(traced.queue_trace) > 0
    assert len(untraced.queue_trace) == 0
    # Tracing observes; it never changes what the switch does.
    for key in ("utilization", "first_drops", "drop_counts"):
        assert _observations(untraced)[key] == _observations(traced)[key]
