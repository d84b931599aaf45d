"""Experiment harnesses reproducing every table and figure of the paper.

Each ``figXX_*`` module declares ``points(scale=..., seed=..., **params)``
(a :class:`repro.experiments.common.Figure`: the scenarios it runs, in row
order) and ``row(keys, results)`` (one point's row of the series the paper
plots); ``table1_*`` exposes ``run(scale=..., seed=...)``.
:func:`repro.experiments.runner.run_experiment` returns either as an
:class:`repro.experiments.common.ExperimentResult`, and every experiment can
be executed from the command line through :mod:`repro.experiments.runner`::

    python -m repro.experiments.runner fig12 --scale small
    occamy-exp fig17 --scale bench

Scales:

* ``bench`` -- minimal parameter grid, used by the test suite;
* ``small`` -- scaled-down but complete grid (default);
* ``paper`` -- the paper's dimensions (slow in pure Python).
"""

from repro.experiments.common import (
    ExperimentResult,
    Figure,
    ScenarioConfig,
    default_schemes,
)

__all__ = [
    "ExperimentResult",
    "Figure",
    "ScenarioConfig",
    "default_schemes",
]
