"""Command-line runner for the experiment harnesses.

Usage::

    python -m repro.experiments.runner list
    python -m repro.experiments.runner fig12 --scale small --seed 1
    python -m repro.experiments.runner all --scale bench --jobs 4

``all`` runs every experiment at the requested scale and prints each table;
it is the closest thing to "regenerate the paper's evaluation section".

Each figure harness is data: ``points()`` lists the scenarios of the
figure, ``row()`` reads one point's results into a row.  One loop here
(:func:`run_figure`) runs them -- every point inline, or one point per
campaign run: with ``--jobs N`` the points of all figures execute on N
forked campaign workers (:mod:`repro.campaign`; POSIX only) instead of
serially, and the tables are identical row-for-row because every point
still receives its figure's seed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

from repro.experiments.common import ExperimentResult, Figure

#: Experiment name -> module path.  A figure module declares
#: ``points(scale, seed, **params) -> Figure`` and ``row(keys, results)``;
#: ``table1`` exposes ``run``.
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


def _module(name: str):
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return importlib.import_module(EXPERIMENTS[name])


def _figure(name: str, scale: str, seed: int, **params) -> Figure | None:
    """Figure ``name``'s points, or ``None`` for ``table1`` (it keeps a plain ``run``)."""
    points = getattr(_module(name), "points", None)
    return None if points is None else points(scale=scale, seed=seed, **params)


def get_runner(name: str) -> Callable[..., ExperimentResult]:
    """The function that runs experiment ``name``: :func:`run_figure` bound to it.

    The pseudo-experiment ``scenario`` resolves to
    :func:`repro.scenario.experiment.run`, which executes a declarative
    scenario document passed via ``params={"scenario": {...}}`` (the
    campaign layer's ``"scenario"`` grid type).  It is not part of
    :data:`EXPERIMENTS` because it cannot run without a document (so
    ``runner all`` skips it).
    """
    if name == "scenario":
        module = importlib.import_module("repro.scenario.experiment")
        return module.run
    _module(name)  # an unknown name raises KeyError here
    return functools.partial(run_figure, name)


def run_points(figure: Figure, point: int | None = None
               ) -> Iterator[Tuple[Dict[str, object], object]]:
    """Run a figure's points (or only point ``point``), yielding ``(keys, results)``.

    ``results`` is the point's :class:`~repro.scenario.runner.ScenarioResult`,
    or a tuple of them for a tuple of specs.  This is the one place a
    figure's scenarios run.
    """
    from repro.scenario import run_scenario

    if point is not None and not 0 <= point < len(figure.points):
        raise IndexError(f"{figure.experiment} has no point {point}")
    for keys, spec in figure.points if point is None else [figure.points[point]]:
        pair = isinstance(spec, tuple)
        results = tuple(run_scenario(each) for each in (spec if pair else (spec,)))
        yield keys, results if pair else results[0]


def run_figure(name: str, scale: str = "small", seed: int = 0,
               point: int | None = None, **params) -> ExperimentResult:
    """Run figure ``name``'s points -- all, or only point ``point`` -- into rows.

    ``params`` are the harness's ``points()`` options (``schemes``, ...).
    ``point`` changes no row: the rows of every point run alone concatenate
    to the whole figure's rows.  ``table1`` has no points and runs its ``run``.
    """
    figure = _figure(name, scale, seed, **params)
    if figure is None:
        return _module(name).run(scale=scale, seed=seed, **params)
    return figure.result(_module(name).row(keys, results)
                         for keys, results in run_points(figure, point))


def run_experiment(name: str, scale: str = "small", seed: int = 0,
                   **params) -> ExperimentResult:
    """Run one experiment by name and return its result."""
    return get_runner(name)(scale=scale, seed=seed, **params)


def specs_for_all(scale: str = "small", seed: int = 0,
                  names: List[str] | None = None,
                  vary_seed: bool = False) -> List["RunSpec"]:
    """The campaign run specs behind :func:`run_all`.

    A figure is one run per point (``params={"point": i}``), ``table1`` one
    run.  With ``vary_seed`` every experiment gets ``seed + index`` (its
    position in the run order) instead of all sharing one seed.  An
    experiment whose points cannot be built (an unknown name or scale)
    raises :class:`RuntimeError` naming it, as a failed run does in
    :func:`run_all`.
    """
    from dataclasses import replace

    from repro.campaign.spec import RunSpec

    specs: List[RunSpec] = []
    for index, name in enumerate(names or sorted(EXPERIMENTS)):
        run = RunSpec(experiment=name, scale=scale,
                      seed=seed + index if vary_seed else seed)
        try:
            figure = _figure(name, scale, run.seed)
        except Exception as exc:
            raise RuntimeError(f"experiment {name!r} failed: {exc}") from exc
        specs.extend([run] if figure is None else
                     [replace(run, params={"point": i}) for i in range(len(figure.points))])
    return specs


def run_all(scale: str = "small", seed: int = 0,
            names: List[str] | None = None,
            jobs: int = 1,
            vary_seed: bool = False,
            progress: Callable[[str, float], None] | None = None,
    ) -> List[ExperimentResult]:
    """Run every (or the selected) experiment and return all results.

    Every figure point is one run of :func:`specs_for_all`; ``jobs > 1``
    hands them to the campaign executor's forked workers.  Each figure's
    rows are reassembled in point order, so parallel and serial runs match
    row-for-row.  A failing run raises and stops further runs (the
    single-shot runner keeps its fail-fast contract; use
    ``python -m repro.campaign`` for failure-tolerant sweeps).
    ``progress(name, elapsed_s)`` is called as each run completes (in
    completion order when parallel); a point is named ``fig03[1]``.
    """
    from repro.campaign.executor import CampaignExecutor

    specs = specs_for_all(scale=scale, seed=seed, names=names, vary_seed=vary_seed)

    def on_progress(done: int, total: int, outcome) -> None:
        if progress and outcome.ok:
            name, point = outcome.spec.experiment, outcome.spec.params.get("point")
            progress(name if point is None else f"{name}[{point}]", outcome.elapsed)

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
        if outcome.spec.params.get("point", 0) > 0:
            results[-1].rows.extend(outcome.result.rows)
        else:
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
