"""Experiment harnesses reproducing every table and figure of the paper.

Each ``figXX_*`` / ``table1_*`` module exposes a ``run(scale=..., seed=...)``
function returning an :class:`repro.experiments.common.ExperimentResult`
(rows of the same series the paper plots) and can be executed from the
command line through :mod:`repro.experiments.runner`::

    python -m repro.experiments.runner fig12 --scale small
    occamy-exp fig17 --scale bench

Scales:

* ``bench`` -- minimal parameter grid, used by the test suite;
* ``small`` -- scaled-down but complete grid (default);
* ``paper`` -- the paper's dimensions (slow in pure Python).
"""

from repro.experiments.common import (
    ExperimentResult,
    ScenarioConfig,
    default_schemes,
)

__all__ = [
    "ExperimentResult",
    "ScenarioConfig",
    "default_schemes",
]
