"""Every example spec under ``examples/`` must parse and validate.

Mirrors the CI ``examples-smoke`` job (``python -m repro.scenario validate
examples/*.json``): scenario documents load through :class:`ScenarioSpec`
plus registry validation, campaign documents through ``SweepSpec`` expansion
with every embedded scenario validated -- so example drift (renamed schemes,
removed workloads, stale fabric endpoints) fails the test suite.
"""

import re
from pathlib import Path

import pytest

from repro.scenario.experiment import main, validate_spec_file
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import ScenarioSpec

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SPECS = sorted(EXAMPLES_DIR.glob("*.json"))


def test_examples_directory_has_specs():
    assert EXAMPLE_SPECS, f"no example JSON documents under {EXAMPLES_DIR}"


@pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda p: p.name)
def test_example_spec_validates(path):
    kind = validate_spec_file(str(path))
    assert kind.startswith(("scenario", "campaign"))


def test_validate_cli_reports_failures(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "scheme": {"name": "nope"}, '
                   '"topology": {"kind": "single_switch"}}')
    with pytest.raises(Exception):
        validate_spec_file(str(bad))


def test_validate_rejects_a_packet_schedule_that_never_ends(tmp_path):
    # JSON parses 1e400 to inf.  A stream at that rate used to pass
    # validation, then loop until memory ran out once the run generated it.
    doc = tmp_path / "inf-rate.json"
    doc.write_text(
        '{"name": "inf-rate", "scheme": {"name": "dt"}, '
        '"topology": {"kind": "raw_switch", "params": {"num_ports": 2, '
        '"port_rate_bps": 1e10, "buffer_bytes": 100000}}, '
        '"workloads": [{"kind": "packet_stream", '
        '"params": {"rate_bps": 1e400, "port": 0}}], "duration": 0.001}')
    with pytest.raises(ValueError, match="rate_bps must be positive and finite"):
        validate_spec_file(str(doc))


def test_validate_resolves_fabric_endpoints_and_tiers(tmp_path):
    # Fabric contents are resolved against the actual topology: a renamed
    # switch or tier in a document fails validation, not the eventual run.
    import json

    base = {
        "name": "stale", "scheme": {"name": "dt"},
        "topology": {"kind": "fat_tree", "params": {"k": 4}},
        "fabric": {"failures": [["agg0_0", "core99"]]},
        "duration": 0.001,
    }
    doc = tmp_path / "stale.json"
    doc.write_text(json.dumps(base))
    with pytest.raises(ValueError, match="no link between"):
        validate_spec_file(str(doc))
    base["fabric"] = {"tier_rates": {"corr": 2e10}}
    doc.write_text(json.dumps(base))
    with pytest.raises(ValueError, match="unknown link tier"):
        validate_spec_file(str(doc))


_STALE_BASE = {
    "name": "stale", "scheme": {"name": "dt"},
    "topology": {"kind": "dumbbell", "params": {"num_pairs": 2}},
    "workloads": [{"kind": "fixed", "params": {"flows": [
        {"src": 0, "dst": 2, "size_bytes": 3000}]}}],
    "duration": 0.001,
}


@pytest.mark.parametrize("patch, message", [
    ({"lb": {"name": "drill"}},
     "unknown load balancer 'drill'; available: ecmp, flowlet"),
    ({"lb": "spray"},
     "unknown load balancer 'spray'; available: ecmp, flowlet"),
    ({"topology": {"kind": "dumbbell",
                   "params": {"num_pairs": 2, "scheduler": "wrr"}}},
     "unknown scheduler 'wrr'; available: drr, fifo, strict"),
    ({"workloads": [{"kind": "trace_replay", "params": {"path": "f.csv"}}]},
     r"unknown workload 'trace_replay'; available: .*fixed"),
    # A kwarg typo behind a valid name names its dotted key and what the
    # factory takes, instead of a TypeError from the run.
    ({"topology": {"kind": "dumbbell", "params": {"num_pair": 2}}},
     r"topology\.params\.num_pair: dumbbell takes num_pairs, "),
    ({"scheme": {"name": "occamy", "kwargs": {"alpah": 4.0}}},
     r"scheme\.kwargs\.alpah: occamy takes alpha, victim_policy, "),
    ({"scheme": {"name": "occamy_longest", "kwargs": {"alpah": 4.0}}},
     r"scheme\.kwargs\.alpah: occamy_longest takes alpha, victim_policy, "),
    ({"workloads": [{"kind": "burst", "params": {"burst_byte": 3000}}]},
     r"workloads\[0\]\.params\.burst_byte: burst takes .*burst_bytes"),
    ({"workloads": [{"kind": "websearch", "params": {"lod": 0.3}}]},
     r"workloads\[0\]\.params\.lod: websearch takes .*load, "),
    ({"transport": {"config": {"min_rot": 1e-3}}},
     r"transport\.config\.min_rot: default takes .*min_rto"),
    ({"transport": {"profile": "papersim"}},
     r"transport\.profile: unknown transport profile 'papersim'; "
     r"available: default, paper_sim, testbed"),
    ({"lb": {"name": "flowlet", "kwargs": {"gapp": 1e-4}}},
     r"lb\.kwargs\.gapp: flowlet takes gap"),
    # A required kwarg nobody passes, or one the runner passes itself,
    # used to bind partially and die as a TypeError in the run.
    ({"workloads": [{"kind": "incast",
                     "params": {"query_size_bytes": 1000}}]},
     r"workloads\[0\]\.params: incast needs fanout"),
    ({"topology": "dumbbell"}, r"topology\.params: dumbbell needs num_pairs"),
    ({"topology": {"kind": "dumbbell",
                   "params": {"num_pairs": 2, "simulator": None}}},
     r"topology\.params\.simulator: supplied by the runner"),
    ({"topology": {"kind": "dumbbell",
                   "params": {"num_pairs": 2, "manager_factory": "dt"}}},
     r"topology\.params\.manager_factory: supplied by the runner"),
], ids=["drill", "spray", "wrr", "trace_replay", "num_pair", "alpah",
        "longest-alpah", "burst_byte", "websearch-lod", "min_rot",
        "papersim", "gapp", "incast-fanout", "dumbbell-shorthand",
        "reserved-simulator", "reserved-manager-factory"])
def test_removed_feature_names_fail_validation(tmp_path, capsys, patch,
                                               message):
    # A document naming a removed policy, scheduler or workload, or a kwarg
    # its factory does not take, fails `validate` with the surviving names,
    # not a run that dies later.
    import json

    document = {**_STALE_BASE, **patch}
    with pytest.raises((KeyError, ValueError), match=message):
        ScenarioRunner().validate(ScenarioSpec.from_dict(document))
    doc = tmp_path / "stale.json"
    doc.write_text(json.dumps(document))
    assert main(["validate", str(doc)]) == 1
    assert re.search(message, capsys.readouterr().out)
