"""The four workloads: one repetition = one closed-loop unit of work.

Each workload is built from the spec documents :mod:`specs` wrote (the
JSON *text*; parsing is part of the measured path) and drives the program
only through the surface later issues must treat as pinned:
``ScenarioSpec.from_dict``, ``ScenarioRunner().run``,
``ScenarioResult.to_dict``, ``SweepSpec.from_dict(...).expand``,
``CampaignExecutor(store=, jobs=, farm=).run(specs, resume=)``,
``ResultStore``, ``make_farm``, ``load_documents``, ``fct_summary``,
``comparison_tables`` (plus ``reset_workload_ids``, which every
standalone scenario run needs for reproducible flow ids).

The load is a closed loop with one client: the next scenario / campaign
pass starts when the previous one returned.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis import comparison_tables, fct_summary, load_documents
from repro.campaign import CampaignExecutor, ResultStore, SweepSpec
from repro.farm import make_farm
from repro.scenario import ScenarioRunner, ScenarioSpec
from repro.workloads import reset_workload_ids

from specs import SWITCH_BURST_SCHEMES


@dataclass
class Repetition:
    """What one repetition did, checked.

    ``problems`` maps an operation label to what was wrong with it; an
    operation with an entry counts as failed.  ``digests`` are the sha256
    of every document produced (the determinism reference), ``op_wall``
    the host seconds of each operation, ``facts`` whatever counters the
    workload read off documents and result objects.
    """

    operations: List[str] = field(default_factory=list)
    problems: Dict[str, List[str]] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    op_wall: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)

    def fail(self, operation: str, problem: str) -> None:
        self.problems.setdefault(operation, []).append(problem)

    def compare(self, reference: "Repetition") -> None:
        """Determinism: every document must hash like the reference's."""
        for label, digest in self.digests.items():
            if reference.digests.get(label) != digest:
                self.fail(label, "document sha256 differs from the "
                                 "warm-up repetition's")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def probe(getter):
    """A counter read off a result object; ``None`` if the path moved."""
    try:
        return getter()
    except (AttributeError, KeyError, TypeError, IndexError):
        return None


def check_scenario_document(doc: dict) -> List[str]:
    """The invariants every scenario document must satisfy."""
    problems = []
    completion = doc["summary"].get("completion")
    if completion is not None and completion < 1.0:
        problems.append(f"completion {completion} < 1.0")
    for index, switch in enumerate(doc["switches"]):
        if switch["arrived_packets"] != (switch["admitted_packets"]
                                         + switch["dropped_packets"]):
            problems.append(f"switch {index}: arrived != admitted + dropped")
        if (switch["admitted_packets"] - switch["transmitted_packets"]
                - switch["expelled_packets"] - switch["evicted_packets"]) < 0:
            problems.append(f"switch {index}: more packets left than admitted")
    return problems


class ScenarioWorkload:
    """Runs the named spec documents one after another, one op each."""

    def __init__(self, texts: Dict[str, str], timed: Sequence[str],
                 tracer) -> None:
        self.texts = texts
        self.timed = tuple(timed)
        self.tracer = tracer
        #: Traced run only: the latest document per label (what the twins
        #: are compared against).
        self.last_docs: Dict[str, dict] = {}
        # Validate once at set-up: a malformed document must fail before
        # the clock starts, not inside the first repetition.
        for label in self.timed:
            ScenarioRunner().validate(
                ScenarioSpec.from_dict(json.loads(texts[label])))

    def repetition(self) -> Repetition:
        rep = Repetition()
        for label in self.timed:
            self.run_document(label, rep)
        return rep

    def cleanup(self) -> None:
        pass

    def run_document(self, label: str, rep: Repetition):
        """spec JSON text in -> checked, serialised document out."""
        tracer = self.tracer
        rep.operations.append(label)
        started = time.perf_counter()
        try:
            with tracer.span("scenario.run", run=label):
                with tracer.span("scenario.parse"):
                    spec = ScenarioSpec.from_dict(
                        json.loads(self.texts[label]))
                reset_workload_ids()
                result = ScenarioRunner().run(spec)
                with tracer.span("scenario.collect"):
                    doc = result.to_dict()
                with tracer.span("scenario.serialize"):
                    text = json.dumps(doc, sort_keys=True)
                    rep.digests[label] = sha256(text)
        except Exception as exc:  # an operation that raises is a failed
            # operation, not a crashed benchmark
            rep.fail(label, f"{type(exc).__name__}: {exc}")
            rep.op_wall[label] = time.perf_counter() - started
            return None, None
        rep.op_wall[label] = time.perf_counter() - started
        for problem in check_scenario_document(doc):
            rep.fail(label, problem)
        self.collect_facts(label, doc, len(text), result, rep)
        return doc, result

    def collect_facts(self, label: str, doc: dict, doc_bytes: int, result,
                      rep: Repetition) -> None:
        facts = rep.facts
        switches = doc["switches"]

        def add(key: str, value) -> None:
            facts[key] = facts.get(key, 0) + value

        def total(field: str) -> int:
            return sum(switch[field] for switch in switches)

        events = doc["sim"]["events_executed"]
        arrived, dropped = total("arrived_packets"), total("dropped_packets")
        expelled = total("expelled_packets")
        add("sim.events", events)
        add("scenario.doc_bytes", doc_bytes)
        add("switchsim.arrived_packets", arrived)
        add("switchsim.dropped_packets", dropped)
        add("switchsim.ecn_marked_packets", total("ecn_marked_packets"))
        add("core.expelled_packets", expelled)
        facts["switchsim.max_occupancy_bytes"] = max(
            facts.get("switchsim.max_occupancy_bytes", 0),
            max(s["max_occupancy_bytes"] for s in switches))
        facts.setdefault("runs", {})[label] = {
            "events": events, "arrived": arrived, "lost": dropped + expelled,
            "summary": doc["summary"],
        }
        if not self.tracer.enabled:
            return
        self.last_docs[label] = doc
        # Counters read off result objects (traced run only).  A path a
        # refactor moved reads None, which sticks and is reported as null.
        def lb_total(name: str) -> int:
            balancers = [node.lb for node in result.topology.all_switches()]
            return sum(getattr(lb, name) for lb in balancers
                       if lb is not None)

        network_level = doc["level"] == "network"
        deep = {
            "lb.decisions": lambda: lb_total("decisions"),
            "lb.reroutes": lambda: lb_total("reroutes"),
            "lb.flowlets": lambda: lb_total("flowlets"),
            "netsim.transport.timeouts":
                lambda: result.topology.network.total_timeouts(),
            "telemetry.ticks": lambda: (0 if result.telemetry is None
                                        else result.telemetry.ticks),
        }
        for key, getter in deep.items():
            value = probe(getter) if network_level else 0
            if value is None or facts.get(key, 0) is None:
                facts[key] = None
            else:
                add(key, value)
        add("telemetry.doc_bytes",
            len(json.dumps(doc["telemetry"])) if "telemetry" in doc else 0)


class FabricWebsearch(ScenarioWorkload):
    """``dt`` then ``occamy`` on identical leaf-spine traffic."""

    def __init__(self, texts, tracer) -> None:
        super().__init__(texts, ("dt", "occamy"), tracer)

    def shard_twin(self, reference_doc: dict, rep: Repetition
                   ) -> Dict[str, object]:
        """The ``dt`` spec once more across two shard processes.

        Exact counts only (rounds, handoffs, identical-or-not); the wall
        ratio is informational -- never cite a sharding speed-up measured
        on a <= 2-core box.
        """
        doc, result = self.run_document("dt_shards2", rep)
        if doc is None:
            return {}
        stats = probe(lambda: result.shard_stats)
        return {
            "wall_s": rep.op_wall["dt_shards2"],
            "rounds": probe(lambda: stats["rounds"]),
            "handoffs": probe(lambda: sum(row["handoffs_out"]
                                          for row in stats["shards"])),
            "identical": documents_equal_modulo_engine(doc, reference_doc),
        }


class FabricFeatures(ScenarioWorkload):
    """flowlet + telemetry + pooled kernel + fabric events, scheme occamy."""

    TWINS = ("heap_twin", "telemetry_off_twin", "ecmp_twin")

    def __init__(self, texts, tracer) -> None:
        super().__init__(texts, ("features",), tracer)

    def twins(self, reference_doc: dict, rep: Repetition
              ) -> Dict[str, object]:
        """One run of each twin (one feature back at its default)."""
        out: Dict[str, object] = {}
        for label in self.TWINS:
            doc, _ = self.run_document(label, rep)
            out[label] = rep.op_wall[label]
            if label == "heap_twin" and doc is not None:
                out["pooled_identical"] = documents_equal_modulo_engine(
                    doc, reference_doc)
        return out


def documents_equal_modulo_engine(a: dict, b: dict) -> bool:
    """Byte-equality of two result documents once ``spec.engine`` is cut."""
    def strip(doc: dict) -> str:
        spec = {k: v for k, v in doc["spec"].items() if k != "engine"}
        return json.dumps(dict(doc, spec=spec), sort_keys=True)
    return strip(a) == strip(b)


class CampaignFarm:
    """spec JSON in -> stored, analysable documents out.

    One repetition executes the sweep into fresh stores through
    ``jobs=1`` (inline), ``jobs=2`` (process pool) and
    ``make_farm("subprocess:1")`` (a fresh interpreter per run), resumes
    over the farm store (every run a cache hit), then loads and analyses
    that store twice.
    """

    def __init__(self, texts: Dict[str, str], tracer, workdir: Path) -> None:
        self.text = texts["sweep"]
        self.tracer = tracer
        self.workdir = workdir
        self._rep_dir: Optional[Path] = None
        SweepSpec.from_dict(json.loads(self.text)).expand()

    def cleanup(self) -> None:
        if self._rep_dir is not None:
            shutil.rmtree(self._rep_dir, ignore_errors=True)
            self._rep_dir = None

    def repetition(self) -> Repetition:
        rep = Repetition()
        tracer = self.tracer
        self._rep_dir = root = Path(tempfile.mkdtemp(dir=self.workdir,
                                                     prefix="stores-"))
        with tracer.span("campaign.expand", run="expand"):
            runs = SweepSpec.from_dict(json.loads(self.text)).expand()
        rep.facts["campaign.runs"] = len(runs)

        farm = make_farm("subprocess:1")
        passes = (
            ("inline", "campaign.inline", dict(jobs=1), False),
            ("pool", "campaign.pool", dict(jobs=2), False),
            ("farm", "farm.subprocess", dict(farm=farm), False),
            ("resume", "campaign.resume", dict(farm=farm), True),
        )
        outcomes = {}
        for name, span, kwargs, resume in passes:
            store = ResultStore(root / ("farm" if resume else name))
            lost = "no outcome"
            try:
                with tracer.span(span, run=name):
                    outcomes[name] = CampaignExecutor(
                        store=store, **kwargs).run(runs, resume=resume)
            except Exception as exc:  # the pass is lost, the benchmark is not
                outcomes[name] = []
                lost = f"pass raised {type(exc).__name__}: {exc}"
            labels = [f"{name}:{spec.config_hash()}" for spec in runs]
            rep.operations.extend(labels)
            done = {o.spec.config_hash(): o for o in outcomes[name]}
            for spec, label in zip(runs, labels, strict=True):
                outcome = done.get(spec.config_hash())
                wanted = "cached" if resume else "ok"
                if outcome is None:
                    rep.fail(label, lost)
                elif outcome.status != wanted:
                    rep.fail(label, f"status {outcome.status!r}, wanted "
                                    f"{wanted!r}: {outcome.error}")
                elif any(row.get("completion", 1.0) < 1.0
                         for row in outcome.result.rows):
                    rep.fail(label, "completion < 1.0")
        rep.facts["campaign.cache_hits"] = sum(
            o.status == "cached" for o in outcomes["resume"])
        # In-worker seconds of the farm pass: the rest of it is spawn cost.
        rep.facts["farm.worker_s"] = sum(o.elapsed for o in outcomes["farm"])
        rep.facts["farm.retries"] = probe(
            lambda: sum(row["retried"] for row in farm.health_rows()))

        # The three stores must agree entry for entry.
        stores = {name: normalized_store(root / name)
                  for name in ("inline", "pool", "farm")}
        for name in ("pool", "farm"):
            for key in sorted(set(stores["inline"]) | set(stores[name])):
                if stores["inline"].get(key) != stores[name].get(key):
                    rep.fail(f"{name}:{key}",
                             "store entry differs from the inline store's")
        rep.facts["store.bytes"] = sum(
            path.stat().st_size for path in (root / "farm").rglob("*.json"))

        # Analysis over the store alone, twice: byte-stable or failed.
        texts = []
        for attempt in ("analysis:first", "analysis:second"):
            rep.operations.append(attempt)
            try:
                with tracer.span("analysis", run=attempt):
                    with tracer.span("analysis.load"):
                        documents = load_documents([root / "farm"])
                    with tracer.span("analysis.fct"):
                        fct = fct_summary(documents)
                    with tracer.span("analysis.compare"):
                        tables, warnings = comparison_tables(
                            documents, metric="avg_fct_ms", baseline="dt")
                    tables = [fct.to_dict()] + [t.to_dict() for t in tables]
                    texts.append(json.dumps(
                        {"tables": tables, "warnings": warnings},
                        sort_keys=True))
                    rep.facts["analysis.rows"] = sum(
                        len(t["rows"]) for t in tables)
            except Exception as exc:  # a failed analysis call, not a crash
                rep.fail(attempt, f"{type(exc).__name__}: {exc}")
        if len(texts) == 2 and texts[0] != texts[1]:
            rep.fail("analysis:second", "output differs from the first call")

        rep.digests["store"] = sha256(json.dumps(stores["farm"],
                                                 sort_keys=True))
        rep.digests["analysis"] = sha256(texts[0]) if texts else ""
        rows = [row for o in outcomes["inline"] if o.result is not None
                for row in o.result.rows]
        rep.facts["switchsim.dropped_packets"] = sum(
            row.get("drops", 0) for row in rows)
        rep.facts["core.expelled_packets"] = sum(
            row.get("expelled", 0) for row in rows)
        rep.facts["runs"] = {"sweep": {"rows": rows}}
        return rep


def normalized_store(root: Path) -> Dict[str, dict]:
    """Store entries keyed by config hash, minus the two host-time fields."""
    entries = {}
    for path in sorted((root / "runs").glob("*.json")):
        entry = json.loads(path.read_text())
        entry.pop("created_unix", None)
        entry.pop("elapsed", None)
        entries[path.stem] = entry
    return entries


def make_workload(name: str, texts: Dict[str, str], tracer, workdir: Path):
    if name == "fabric_websearch":
        return FabricWebsearch(texts, tracer)
    if name == "switch_burst":
        # dt, abm, pushout, occamy in turn on one bare switch.
        return ScenarioWorkload(texts, SWITCH_BURST_SCHEMES, tracer)
    if name == "fabric_features":
        return FabricFeatures(texts, tracer)
    if name == "campaign_farm":
        return CampaignFarm(texts, tracer, workdir)
    raise KeyError(f"unknown workload {name!r}")
