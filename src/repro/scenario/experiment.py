"""Campaign/runner adapter and CLI for stand-alone scenarios.

``run`` is the pseudo-experiment behind the campaign layer's ``"scenario"``
grid type: the executor calls it like any figure harness
(``run(scale=..., seed=..., scenario=...)``) and gets back an
:class:`~repro.experiments.common.ExperimentResult` with one summary row.

The module also backs ``python -m repro.scenario``::

    python -m repro.scenario run examples/scenario_dumbbell_burst.json
    python -m repro.scenario run spec.json --seed 3 --json
    python -m repro.scenario registries
    python -m repro.scenario validate examples/*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.scenario.runner import run_scenario
from repro.scenario.spec import ScenarioSpec


def run(scale: str = "small", seed: int = 0, scenario: Optional[dict] = None):
    """Execute a scenario document; the campaign's ``"scenario"`` experiment.

    ``scenario`` is a :class:`~repro.scenario.spec.ScenarioSpec` dict.  The
    ``seed`` argument (the sweep axis) overrides any seed embedded in the
    document; ``scale`` is accepted for interface compatibility but ignored
    -- scenario documents are self-contained.
    """
    del scale
    if scenario is None:
        raise ValueError(
            "the 'scenario' experiment needs a scenario document; "
            "pass params={'scenario': {...}} (see repro.scenario.spec)")
    spec = replace(ScenarioSpec.from_dict(scenario), seed=seed)
    return run_scenario(spec).to_experiment_result()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads import reset_workload_ids

    spec = ScenarioSpec.from_file(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    # Each engine flag overrides its own field only (--shards must not
    # clobber a --kernel given alongside it, and vice versa).
    engine = spec.engine
    if args.kernel is not None:
        engine = replace(engine, kernel=args.kernel)
    if args.shards is not None:
        engine = replace(engine, shards=args.shards)
    if args.partition is not None:
        engine = replace(engine, partition=args.partition)
    if engine is not spec.engine:
        spec = replace(spec, engine=engine)
    dashboard = None
    if args.live:
        # --live implies telemetry: force-enable the bus (keeping any
        # cadence the document configured) so there is something to render.
        if not spec.telemetry.enabled:
            spec = replace(spec,
                           telemetry=replace(spec.telemetry, enabled=True))
        if spec.engine.shards > 1:
            from repro.telemetry.dashboard import ShardDashboard

            dashboard = ShardDashboard(spec.label())
        else:
            from repro.telemetry.dashboard import LiveDashboard

            dashboard = LiveDashboard(spec.label())
    reset_workload_ids()
    result = run_scenario(spec, on_sample=dashboard)
    if dashboard is not None and result.telemetry is not None:
        dashboard.finish(result.telemetry)
    experiment_result = result.to_experiment_result()
    if args.json:
        print(json.dumps(experiment_result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"[{spec.label()}  hash={spec.config_hash()}]")
        print(experiment_result)
    shard_stats = getattr(result, "shard_stats", None)
    if shard_stats is not None and not args.json:
        _print_shard_rows(shard_stats)
    return 0


def _print_shard_rows(shard_stats: dict) -> None:
    """Per-shard diagnostic rows (stderr: never mixes into piped output)."""
    partition = shard_stats["partition"]
    print(f"[shards={partition['num_shards']} "
          f"strategy={partition['strategy']} "
          f"cut_links={len(partition['cut_links'])} "
          f"lookahead={partition['lookahead'] * 1e6:.2f}us "
          f"rounds={shard_stats['rounds']}]", file=sys.stderr)
    for row in shard_stats["shards"]:
        busy = row["busy_s"]
        blocked = row["blocked_s"]
        total = busy + blocked
        rate = row["events"] / busy if busy > 0 else 0.0
        print(f"  shard {row['shard']}: nodes={row['nodes']} "
              f"events={row['events']} ({rate:,.0f} ev/s) "
              f"handoffs out/in={row['handoffs_out']}/{row['handoffs_in']} "
              f"blocked={100 * blocked / total if total else 0:.0f}% "
              f"rss={row['peak_rss_kb']}kB", file=sys.stderr)


def _cmd_registries(args: argparse.Namespace) -> int:
    del args
    from repro.core.registry import available_schemes
    from repro.lb import available_load_balancers
    from repro.scenario.topologies import available_topologies
    from repro.scenario.transports import available_transport_profiles
    from repro.scenario.workloads import available_workloads
    from repro.sim.kernel import available_kernels, make_kernel

    print("schemes:            " + ", ".join(available_schemes()))
    print("topologies:         " + ", ".join(available_topologies()))
    print("workloads:          " + ", ".join(available_workloads()))
    print("transport profiles: " + ", ".join(available_transport_profiles()))
    print("load balancers:     " + ", ".join(available_load_balancers()))
    kernels = []
    for name in available_kernels():
        runs = make_kernel(name).name
        kernels.append(name if runs == name else f"{name} (alias of {runs})")
    print("engine kernels:     " + ", ".join(kernels))
    return 0


def _validate_fabric_resolves(spec: ScenarioSpec, seen: set) -> None:
    """Build the topology of a non-default-fabric spec (no traffic).

    Registry validation cannot see fabric *contents* -- whether
    ``failures``/``degraded`` endpoint names and ``tier_rates`` tier names
    actually exist is decided by the topology builder.  Constructing the
    (traffic-free) topology resolves them, so a renamed switch or tier in
    an example document fails validation instead of failing at run time.
    Distinct (topology, fabric) combinations are built once per call.
    """
    from repro.core.registry import make_buffer_manager
    from repro.scenario.spec import canonical_json
    from repro.scenario.topologies import make_topology

    if spec.fabric.is_default():
        return
    key = canonical_json([spec.topology.to_dict(), spec.fabric.to_dict()])
    if key in seen:
        return
    seen.add(key)
    topology = make_topology(spec.topology.kind,
                             lambda: make_buffer_manager("dt"),
                             **spec.resolved_topology_params())
    # Timeline endpoints resolve against the built network too, so a
    # renamed switch in an example's fabric.events fails validation here
    # instead of mid-simulation.
    network = getattr(topology, "network", None)
    if network is not None:
        for event in spec.fabric.events:
            network.check_fabric_event(event)


def _validate_partition_resolves(spec: ScenarioSpec, seen: set) -> None:
    """Build and partition the topology of a multi-shard spec (no traffic).

    ``EngineSpec.validate`` only checks that the strategy name exists;
    whether the cut is *valid* for this topology (enough pods/leaves,
    positive cut-link delays, full node cover) is decided by the
    partitioner against the built fabric.  Resolving it here makes a stale
    example -- say a shard count exceeding the pod count -- fail
    validation instead of failing at run time.
    """
    from repro.core.registry import make_buffer_manager
    from repro.netsim.partition import partition_topology
    from repro.scenario.spec import canonical_json
    from repro.scenario.topologies import make_topology

    if spec.engine.shards <= 1:
        return
    key = canonical_json([spec.topology.to_dict(), spec.engine.to_dict()])
    if key in seen:
        return
    seen.add(key)
    topology = make_topology(spec.topology.kind,
                             lambda: make_buffer_manager("dt"),
                             **spec.resolved_topology_params())
    partition_topology(topology, spec.engine.shards, spec.engine.partition)


def validate_spec_file(path: str) -> str:
    """Parse and validate one spec document; returns its detected kind.

    Scenario documents (no ``grids`` key) go through
    :class:`~repro.scenario.spec.ScenarioSpec` plus the runner's registry
    validation; campaign documents through
    :class:`~repro.campaign.spec.SweepSpec` expansion, with every embedded
    scenario document validated the same way.  Non-default fabric sections
    additionally build their (traffic-free) topology so failure/degradation
    endpoint names and tier names resolve.  Raises on the first problem, so
    stale example specs fail CI instead of rotting silently.
    """
    from repro.campaign.spec import SweepSpec
    from repro.scenario.runner import ScenarioRunner

    with open(path) as handle:
        document = json.load(handle)
    runner = ScenarioRunner()
    built: set = set()
    if isinstance(document, dict) and "grids" in document:
        sweep = SweepSpec.from_dict(document)
        runs = sweep.expand()
        if not runs:
            raise ValueError(f"campaign {path} expands to zero runs")
        for run_spec in runs:
            embedded = run_spec.params.get("scenario")
            if embedded is not None:
                spec = ScenarioSpec.from_dict(embedded)
                runner.validate(spec)
                _validate_fabric_resolves(spec, built)
                _validate_partition_resolves(spec, built)
        return f"campaign ({len(runs)} runs)"
    spec = ScenarioSpec.from_dict(document)
    runner.validate(spec)
    _validate_fabric_resolves(spec, built)
    _validate_partition_resolves(spec, built)
    return "scenario"


def _cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.specs:
        try:
            kind = validate_spec_file(path)
        except Exception as exc:  # noqa: BLE001 - report every parse error
            failures += 1
            print(f"FAIL {path}: {exc}")
        else:
            print(f"ok   {path} [{kind}]")
    if failures:
        print(f"{failures} of {len(args.specs)} spec files failed validation")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario JSON document")
    p_run.add_argument("spec", help="path to a ScenarioSpec JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the document's seed")
    p_run.add_argument("--kernel", default=None,
                       help="override the document's engine.kernel")
    p_run.add_argument("--shards", type=int, default=None,
                       help="override the document's engine.shards (run the "
                            "fabric as N parallel shard processes)")
    p_run.add_argument("--partition", default=None,
                       help="override the document's engine.partition "
                            "strategy (auto, pods, leaves, contiguous)")
    p_run.add_argument("--json", action="store_true",
                       help="print the result as JSON instead of a table")
    p_run.add_argument("--live", action="store_true",
                       help="render a live telemetry dashboard while the "
                            "scenario runs (force-enables the sampling bus)")
    p_run.set_defaults(func=_cmd_run)

    p_reg = sub.add_parser("registries",
                           help="list registered schemes/topologies/workloads")
    p_reg.set_defaults(func=_cmd_registries)

    p_val = sub.add_parser(
        "validate",
        help="parse scenario/campaign JSON documents (CI example smoke)")
    p_val.add_argument("specs", nargs="+",
                       help="paths to scenario or campaign JSON files")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
