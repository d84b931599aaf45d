"""Command-line runner for the experiment harnesses.

Usage::

    python -m repro.experiments.runner list
    python -m repro.experiments.runner fig12 --scale small --seed 1
    python -m repro.experiments.runner all --scale bench --jobs 4

``all`` runs every experiment at the requested scale and prints each table;
it is the closest thing to "regenerate the paper's evaluation section".
With ``--jobs N`` the experiments execute on N forked campaign workers
(:mod:`repro.campaign`; POSIX only) instead of serially; results are
identical run-for-run because every experiment still receives the same seed.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Callable, Dict, List

from repro.experiments.common import ExperimentResult

#: Experiment name -> module path (each module exposes ``run``).
EXPERIMENTS: Dict[str, str] = {
    "fig03": "repro.experiments.fig03_dt_behavior",
    "fig06": "repro.experiments.fig06_anomalous",
    "fig07": "repro.experiments.fig07_utilization",
    "table1": "repro.experiments.table1_hw_cost",
    "fig11": "repro.experiments.fig11_queue_evolution",
    "fig12": "repro.experiments.fig12_burst_absorption",
    "fig13": "repro.experiments.fig13_qct_fct",
    "fig14": "repro.experiments.fig14_isolation",
    "fig15": "repro.experiments.fig15_buffer_choking",
    "fig16": "repro.experiments.fig16_alpha",
    "fig17": "repro.experiments.fig17_websearch",
    "fig18": "repro.experiments.fig18_all_to_all",
    "fig19": "repro.experiments.fig19_all_reduce",
    "fig20": "repro.experiments.fig20_query_load",
    "fig21": "repro.experiments.fig21_round_robin",
    "fig22": "repro.experiments.fig22_heavy_load",
    "fig23": "repro.experiments.fig23_buffer_size",
}


def get_runner(name: str) -> Callable[..., ExperimentResult]:
    """Import and return the ``run`` function of experiment ``name``.

    Besides the figure/table harnesses, the pseudo-experiment ``scenario``
    resolves to :func:`repro.scenario.experiment.run`, which executes a
    declarative scenario document passed via ``params={"scenario": {...}}``
    (the campaign layer's ``"scenario"`` grid type).  It is not part of
    :data:`EXPERIMENTS` because it cannot run without a document (so
    ``runner all`` skips it).
    """
    if name == "scenario":
        module = importlib.import_module("repro.scenario.experiment")
        return module.run
    try:
        module_path = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        ) from None
    module = importlib.import_module(module_path)
    return module.run


def run_experiment(name: str, scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Run one experiment by name and return its result."""
    return get_runner(name)(scale=scale, seed=seed)


def specs_for_all(scale: str = "small", seed: int = 0,
                  names: List[str] | None = None,
                  vary_seed: bool = False) -> List["RunSpec"]:
    """The campaign run specs behind :func:`run_all`.

    With ``vary_seed`` every experiment gets ``seed + index`` (its position
    in the run order) instead of all experiments sharing one seed.
    """
    from repro.campaign.spec import RunSpec

    ordered = names or sorted(EXPERIMENTS)
    return [
        RunSpec(experiment=name, scale=scale,
                seed=seed + index if vary_seed else seed)
        for index, name in enumerate(ordered)
    ]


def run_all(scale: str = "small", seed: int = 0,
            names: List[str] | None = None,
            jobs: int = 1,
            vary_seed: bool = False,
            progress: Callable[[str, float], None] | None = None,
    ) -> List[ExperimentResult]:
    """Run every (or the selected) experiment and return all results.

    ``jobs > 1`` delegates to the campaign executor's forked workers; the
    results come back in the same order either way, and each experiment sees
    the same seed, so parallel and serial runs match row-for-row.  A failing
    experiment raises and stops further experiments (the single-shot runner
    keeps its fail-fast contract; use ``python -m repro.campaign`` for
    failure-tolerant sweeps).  ``progress(name, elapsed_s)`` is called as
    each experiment completes (in completion order when parallel).
    """
    from repro.campaign.executor import CampaignExecutor

    specs = specs_for_all(scale=scale, seed=seed, names=names, vary_seed=vary_seed)

    def on_progress(done: int, total: int, outcome) -> None:
        if progress and outcome.ok:
            progress(outcome.spec.experiment, outcome.elapsed)

    outcomes = CampaignExecutor(jobs=jobs).run(
        specs, progress=on_progress, fail_fast=True
    )
    results: List[ExperimentResult] = []
    for outcome in outcomes:
        if not outcome.ok or outcome.result is None:
            message = f"experiment {outcome.spec.experiment!r} failed: {outcome.error}"
            if outcome.traceback:
                message += f"\n{outcome.traceback}"
            raise RuntimeError(message)
        results.append(outcome.result)
    return results


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment",
                        help="experiment name (e.g. fig12, table1), 'all' or 'list'")
    parser.add_argument("--scale", default="small", choices=["bench", "small", "paper"],
                        help="scenario scale (default: small)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="forked workers for 'all' (default: 1 = serial)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="give each experiment of 'all' seed + its index "
                             "instead of one shared seed")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    start = time.time()

    def report_progress(name: str, run_elapsed: float) -> None:
        print(f"[{name} completed in {run_elapsed:.1f}s]", flush=True)

    results = run_all(scale=args.scale, seed=args.seed, names=names,
                      jobs=args.jobs, vary_seed=args.vary_seed,
                      progress=report_progress)
    elapsed = time.time() - start
    for result in results:
        print(result)
        print()
    print(f"[{len(results)} experiment(s) completed in {elapsed:.1f}s, "
          f"jobs={args.jobs}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
