"""Parallel sweep orchestration with a persistent result store.

This package separates *what to run* from *how it runs*, in the style of
firesim's run-farm configs and conweave-ns3's autorun + analysis pipeline:

* :mod:`repro.campaign.spec` -- declarative sweep specs (:class:`SweepSpec`,
  :class:`GridSpec`, :class:`RunSpec`) with stable config hashing;
* :mod:`repro.campaign.executor` -- a multiprocess executor with per-run
  isolation, progress reporting and failure capture;
* :mod:`repro.campaign.store` -- a JSON result store keyed by config hash,
  enabling cache-hit skip / ``--resume``;
* :mod:`repro.campaign.cli` -- the ``python -m repro.campaign`` command
  (``run`` / ``status`` / ``clean``).

Reading the store back (comparison tables, CDFs, timelines) is the analysis
package's job alone.
"""

from repro.campaign.executor import (
    CampaignExecutor,
    RunOutcome,
    execute_run,
    print_progress,
)
from repro.campaign.spec import (
    GridSpec,
    RunSpec,
    ScenarioGridSpec,
    SweepSpec,
    canonical_json,
    set_by_path,
)
from repro.campaign.store import ResultStore, StoreEntry

__all__ = [
    "CampaignExecutor",
    "GridSpec",
    "ResultStore",
    "RunOutcome",
    "RunSpec",
    "ScenarioGridSpec",
    "StoreEntry",
    "SweepSpec",
    "canonical_json",
    "execute_run",
    "set_by_path",
    "print_progress",
]
