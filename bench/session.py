"""One measuring session: a fresh interpreter spawned by ``run.py``.

imports -> spec documents generated from the seed, written below
``bench/out``, read back, parsed and validated -> one untimed warm-up
repetition (``setup_s`` ends here) -> the timed repetitions, each after a
``gc.collect()``.  Prints one JSON record as its last line.

With ``--trace 1`` the session instead takes one untraced baseline
repetition, one under phase spans, one under the cProfile dispatch
attribution, runs the workload's twins, and writes
``bench/out/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def clocks():
    """(wall, cpu): cpu is user+sys of this process and reaped children.

    ``getrusage`` rather than ``os.times()``: the same counters, read in
    microseconds instead of 10 ms clock ticks.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), (own.ru_utime + own.ru_stime
                                 + reaped.ru_utime + reaped.ru_stime)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def timed(workload, reference=None):
    """One repetition with the clocks around it (clean-up outside them)."""
    gc.collect()
    wall0, cpu0 = clocks()
    rep = workload.repetition()
    wall1, cpu1 = clocks()
    workload.cleanup()
    if reference is not None:
        rep.compare(reference)
    return rep, wall1 - wall0, cpu1 - cpu0


def exact_counts(rep) -> Dict[str, object]:
    """The counts that must repeat exactly for a seed (README records them)."""
    counts: Dict[str, object] = {
        label: {key: run[key] for key in ("events", "arrived", "lost")}
        for label, run in rep.facts["runs"].items() if "events" in run}
    if "campaign.runs" in rep.facts:
        counts.update({key: rep.facts[key] for key in (
            "campaign.runs", "campaign.cache_hits",
            "switchsim.dropped_packets", "core.expelled_packets")})
    return counts


def run_session(workload_name: str, seed: int, scale: str, reps: int,
                trace: bool, spawned_at: Optional[float] = None) -> dict:
    started = time.time() if spawned_at is None else spawned_at
    import specs
    import workloads  # imports the program: part of set-up
    from tracing import NullTracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{workload_name}-"))
    try:
        # The program receives only these documents.
        for stem, doc in specs.generate(workload_name, seed, scale).items():
            (workdir / f"{stem}.json").write_text(json.dumps(doc))
        texts = {path.stem: path.read_text()
                 for path in sorted(workdir.glob("*.json"))}
        workload = workloads.make_workload(workload_name, texts,
                                           NullTracer(), workdir)
        reference, _, _ = timed(workload)  # the warm-up repetition
        setup_s = time.time() - started

        done = [reference]
        record: Dict[str, object] = {"setup_s": setup_s, "reps": []}
        if trace:
            record.update(traced_part(workload_name, seed, scale, texts,
                                      workdir, workload, reference, done))
        else:
            for _ in range(reps):
                rep, wall, cpu = timed(workload, reference)
                done.append(rep)
                record["reps"].append({"wall_s": wall, "cpu_s": cpu})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["peak_rss_mb"] = peak_rss_mb()
    record["attempted"] = sum(len(rep.operations) for rep in done)
    record["problems"] = [f"{label}: {'; '.join(problems)}"
                          for rep in done
                          for label, problems in rep.problems.items()]
    record["digests"] = reference.digests
    record["counts"] = exact_counts(reference)
    return record


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_part(workload_name: str, seed: int, scale: str, texts, workdir,
                plain, reference, done: List) -> Dict[str, object]:
    import workloads
    from tracing import DispatchProfile, Tracer

    baseline, baseline_wall, _ = timed(plain, reference)
    done.append(baseline)

    tracer = Tracer()
    traced = workloads.make_workload(workload_name, texts, tracer, workdir)
    tracer.install()
    try:
        gc.collect()
        with tracer.span("repetition", run="repetition"):
            spanned = traced.repetition()
    finally:
        tracer.uninstall()
    traced.cleanup()
    spanned.compare(reference)
    done.append(spanned)

    profile = DispatchProfile()
    profile.install()
    try:
        profiled, _, _ = timed(plain, reference)
    finally:
        profile.uninstall()
    done.append(profiled)

    # Twins: untraced, once each, against the spanned repetition's document.
    extra = workloads.Repetition()
    twins: Dict[str, object] = {}
    if workload_name == "fabric_features":
        twins = plain.twins(traced.last_docs["features"], extra)
    shard: Dict[str, object] = {}
    if workload_name == "fabric_websearch":
        shard = plain.shard_twin(traced.last_docs["dt"], extra)
    done.append(extra)

    layers = build_layers(workload_name, tracer, spanned, baseline,
                          baseline_wall, profile, twins, shard)
    root = tracer.spans[0]
    trace_file = OUT_DIR / f"trace_{workload_name}.json"
    trace_file.write_text(json.dumps({
        "workload": workload_name, "seed": seed, "scale": scale,
        "root_s": root["end"] - root["start"],
        "self_s": tracer.self_times(),
        "unresolved": tracer.unresolved,
        "orphans": tracer.orphans(),
        "profile": profile.buckets() if profile.resolved else None,
        "twins": twins, "shard": shard,
        "layers": layers,
        "spans": [dict(span, id=index)
                  for index, span in enumerate(tracer.spans)],
    }, indent=1))
    return {"layers": layers, "unresolved": tracer.unresolved,
            "trace_file": str(trace_file.relative_to(BENCH_DIR.parent))}


def build_layers(workload_name, tracer, spanned, baseline, baseline_wall,
                 profile, twins, shard) -> Dict[str, dict]:
    """Every :data:`ledger.LAYERS` name -> ``{"value", "unit"}``."""
    from ledger import UNITS
    from specs import SWITCH_BURST_SCHEMES
    from tracing import BUCKET_NAMES

    own, total = tracer.self_times(), tracer.durations()
    facts, plain_facts = spanned.facts, baseline.facts
    unresolved = set(tracer.unresolved)
    values: Dict[str, object] = {name: 0 for name in UNITS}

    def hooked(hook: str, value):
        return None if hook in unresolved else value

    # -- phases (self time inside the span-traced repetition) ----------
    events = facts.get("sim.events",
                       hooked("sim.dispatch",
                              tracer.counts.get("sim.dispatch", 0)))
    dispatch_s = hooked("sim.dispatch", own.get("sim.dispatch", 0.0))
    values.update({
        "scenario.parse_s": own.get("scenario.parse", 0.0),
        "scenario.validate_s": hooked("scenario.validate",
                                      own.get("scenario.validate", 0.0)),
        "topology.build_s": hooked("topology.build",
                                   own.get("topology.build", 0.0)),
        "workloads.generate_s": hooked("workloads.generate",
                                       own.get("workloads.generate", 0.0)),
        "workloads.flows": hooked("workloads.generate",
                                  tracer.counts.get("workloads.generate", 0)),
        "netsim.inject_s": hooked("netsim.inject",
                                  own.get("netsim.inject", 0.0)),
        "sim.dispatch_s": dispatch_s,
        "sim.events": events,
        "sim.us_per_event": (None if dispatch_s is None or not events
                             else dispatch_s / events * 1e6),
        "scenario.collect_s": own.get("scenario.collect", 0.0),
        "scenario.serialize_s": own.get("scenario.serialize", 0.0),
        "scenario.doc_bytes": facts.get("scenario.doc_bytes", 0),
        "scenario.other_s": (own.get("scenario.run", 0.0)
                             + own.get("repetition", 0.0)),
    })

    # -- dispatch attribution (the cProfile repetition) -----------------
    if profile.resolved:
        buckets = profile.buckets()
        whole = sum(row["self_s"] for row in buckets.values()) or 1.0
        for bucket in BUCKET_NAMES:
            values[f"{bucket}.calls"] = buckets[bucket]["calls"]
            values[f"{bucket}.self_pct"] = (buckets[bucket]["self_s"]
                                            / whole * 100.0)
    else:
        for bucket in BUCKET_NAMES:
            values[f"{bucket}.calls"] = values[f"{bucket}.self_pct"] = None

    # -- model counters --------------------------------------------------
    for key in ("switchsim.arrived_packets", "switchsim.dropped_packets",
                "switchsim.ecn_marked_packets",
                "switchsim.max_occupancy_bytes", "core.expelled_packets",
                "netsim.transport.timeouts", "lb.decisions", "lb.reroutes",
                "lb.flowlets", "telemetry.ticks", "telemetry.doc_bytes"):
        values[key] = facts.get(key, 0)
    runs = facts.get("runs", {})
    rows = [run["summary"] for run in runs.values() if "summary" in run]
    rows += [row for run in runs.values() for row in run.get("rows", [])]
    recoveries = [row["recovery_ms"] for row in rows
                  if row.get("recovery_ms") is not None]
    slowdowns = [row["avg_fct_slowdown"] for row in rows
                 if "avg_fct_slowdown" in row]
    values.update({
        "scenario.timeline.recovery_ms": max(recoveries, default=0),
        "model.flows_completed": sum(row.get("flows", 0) for row in rows),
        "model.avg_fct_slowdown": (statistics.fmean(slowdowns)
                                   if slowdowns else 0),
        "model.p99_qct_ms": max((row["p99_qct_ms"] for row in rows
                                 if "p99_qct_ms" in row), default=0),
    })
    arrived = sum(run.get("arrived", 0) for run in runs.values())
    lost = sum(run.get("lost", 0) for run in runs.values())
    values["model.sim_loss_pct"] = lost / arrived * 100.0 if arrived else 0
    if workload_name == "fabric_websearch":
        dt_qct = runs["dt"]["summary"]["avg_qct_ms"]
        occamy_qct = runs["occamy"]["summary"]["avg_qct_ms"]
        values["model.qct_gain_pct"] = (dt_qct - occamy_qct) / dt_qct * 100.0

    # -- same layer, different use (the untraced baseline repetition) ----
    plain_runs = plain_facts.get("runs", {})
    if workload_name == "switch_burst":
        for scheme in SWITCH_BURST_SCHEMES:
            run, wall = plain_runs[scheme], baseline.op_wall[scheme]
            values.update({
                f"core.{scheme}.wall_s": wall,
                f"core.{scheme}.us_per_packet": wall / run["arrived"] * 1e6,
                f"core.{scheme}.loss_pct": run["lost"] / run["arrived"] * 100,
                f"core.{scheme}.events": run["events"],
            })
    if workload_name == "fabric_websearch":
        dt_wall, occamy_wall = (baseline.op_wall[s] for s in ("dt", "occamy"))
        values.update({"fabric.dt.wall_s": dt_wall,
                       "fabric.occamy.wall_s": occamy_wall,
                       "fabric.occamy_over_dt": occamy_wall / dt_wall})
        if "wall_s" in shard:
            values.update({
                "sim.shard.rounds": shard["rounds"],
                "sim.shard.handoffs": shard["handoffs"],
                "sim.shard.identical": float(shard["identical"]),
                "sim.shard.wall_over_single": shard["wall_s"] / dt_wall,
            })
    if workload_name == "fabric_features" and "heap_twin" in twins:
        wall = baseline.op_wall["features"]
        values.update({
            "sim.kernel.pooled_over_heap": wall / twins["heap_twin"],
            "sim.kernel.pooled_identical":
                float(twins.get("pooled_identical", False)),
            "telemetry.on_over_off": wall / twins["telemetry_off_twin"],
            "lb.flowlet_over_ecmp": wall / twins["ecmp_twin"],
        })

    # -- orchestration ----------------------------------------------------
    if workload_name == "campaign_farm":
        n = facts["campaign.runs"]
        inline_s = total.get("campaign.inline", 0.0)
        sim_s = hooked("campaign.sim", total.get("campaign.sim", 0.0))
        farm_s = total.get("farm.subprocess", 0.0)
        values.update({
            "campaign.expand_s": total.get("campaign.expand", 0.0),
            "campaign.runs": n,
            "campaign.inline_s": inline_s,
            "campaign.sim_s": sim_s,
            "campaign.overhead_ms_per_run":
                None if sim_s is None else (inline_s - sim_s) / n * 1e3,
            "campaign.pool_s": total.get("campaign.pool", 0.0),
            "farm.subprocess_s": farm_s,
            "farm.spawn_ms_per_run":
                (farm_s - facts["farm.worker_s"]) / n * 1e3,
            "farm.retries": facts["farm.retries"],
            "campaign.resume_s": total.get("campaign.resume", 0.0),
            "campaign.cache_hits": facts["campaign.cache_hits"],
            "store.save_s": hooked("store.save", total.get("store.save", 0.0)),
            "store.load_s": hooked("store.load", total.get("store.load", 0.0)),
            "store.bytes": facts["store.bytes"],
            "analysis.load_s": total.get("analysis.load", 0.0),
            "analysis.fct_s": total.get("analysis.fct", 0.0),
            "analysis.compare_s": total.get("analysis.compare", 0.0),
            "analysis.rows": facts.get("analysis.rows", 0),
        })

    root = tracer.spans[0]
    values["trace.overhead_pct"] = ((root["end"] - root["start"])
                                    / baseline_wall - 1.0) * 100.0
    if set(values) != set(UNITS):
        raise AssertionError(f"ledger drift: {set(values) ^ set(UNITS)}")
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    record = run_session(args.workload, args.seed, args.scale, args.reps,
                         bool(args.trace), args.spawned_at)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
