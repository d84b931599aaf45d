"""Parallel sweep orchestration with a persistent result store.

This package separates *what to run* from *how it runs*, in the style of
firesim's run-farm configs and conweave-ns3's autorun + analysis pipeline:

* :mod:`repro.campaign.spec` -- declarative sweep specs (:class:`SweepSpec`,
  :class:`GridSpec`, :class:`RunSpec`) with stable config hashing;
* :mod:`repro.campaign.executor` -- a multiprocess executor with per-run
  isolation, progress reporting and failure capture;
* :mod:`repro.campaign.store` -- a JSON result store keyed by config hash,
  enabling cache-hit skip / ``--resume``;
* :mod:`repro.campaign.aggregate` -- cross-run comparison tables (percentile
  summaries, scheme-vs-scheme deltas);
* :mod:`repro.campaign.cli` -- the ``python -m repro.campaign`` command
  (``run`` / ``status`` / ``report`` / ``clean``).
"""

from repro.campaign.aggregate import (
    CampaignReport,
    campaign_report,
    numeric_columns,
    scheme_deltas,
    scheme_summary,
    tagged_rows,
)
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
    "CampaignReport",
    "GridSpec",
    "ResultStore",
    "RunOutcome",
    "RunSpec",
    "ScenarioGridSpec",
    "StoreEntry",
    "SweepSpec",
    "campaign_report",
    "canonical_json",
    "execute_run",
    "set_by_path",
    "numeric_columns",
    "print_progress",
    "scheme_deltas",
    "scheme_summary",
    "tagged_rows",
]
