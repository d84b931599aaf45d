"""Campaign execution: inline, or across the run farm's worker processes.

The executor turns a list of :class:`~repro.campaign.spec.RunSpec`s into
:class:`RunOutcome`s.  Each run executes in isolation -- inline when
``jobs == 1``, otherwise in a worker process of a
:class:`~repro.farm.RunFarm`: ``jobs > 1`` forks N workers from the farm's
dispatch loop, ``farm=`` names the farm outright -- and a crashing run is
captured as a ``failed`` outcome instead of aborting the campaign.  Every
parallel run shares that one loop and its one worker-loss model: a dead
worker's run is retried on a fresh worker, then reported failed.  Outcomes
are returned in the order the specs were given, regardless of completion
order, so parallel campaigns are reproducible run-for-run.

When a :class:`~repro.campaign.store.ResultStore` is attached, every outcome
is persisted as it completes, and ``resume=True`` skips any spec whose config
hash is already stored with status ``ok`` (the cached result is loaded back
instead of re-simulated).
"""

from __future__ import annotations

import contextlib
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.spec import RunSpec
from repro.campaign.store import (
    STATUS_FAILED,
    STATUS_OK,
    ResultStore,
    StoreEntry,
)
from repro.experiments.common import ExperimentResult

#: Outcome statuses (superset of store statuses: ``cached`` never hits disk
#: again, it is a resume hit served from the store).
STATUS_CACHED = "cached"

#: Called after every finished run: (completed_count, total, outcome).
ProgressCallback = Callable[[int, int, "RunOutcome"], None]


@dataclass
class RunOutcome:
    """The result of attempting one run of a campaign."""

    spec: RunSpec
    status: str  # "ok" | "failed" | "cached"
    elapsed: float = 0.0
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)


def execute_run(spec: RunSpec) -> RunOutcome:
    """Execute one run inline, capturing any failure as an outcome."""
    start = time.perf_counter()
    try:
        # Imported lazily so worker processes pay the import cost once and
        # spec construction stays importable without the experiment stack.
        from repro.experiments.runner import get_runner

        runner = get_runner(spec.experiment)
        result = runner(scale=spec.scale, seed=spec.seed, **spec.params)
        if not isinstance(result, ExperimentResult):
            raise TypeError(
                f"experiment {spec.experiment!r} returned {type(result).__name__}, "
                "expected ExperimentResult"
            )
        return RunOutcome(
            spec=spec,
            status=STATUS_OK,
            elapsed=time.perf_counter() - start,
            result=result,
        )
    except Exception as exc:  # campaign must survive any run failure;
        # KeyboardInterrupt/SystemExit still propagate and abort the sweep.
        return RunOutcome(
            spec=spec,
            status=STATUS_FAILED,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
        )


def outcome_to_payload(outcome: RunOutcome) -> Dict[str, object]:
    """The JSON-serializable form of an outcome (the farm's wire format)."""
    return {
        "spec": outcome.spec.to_dict(),
        "status": outcome.status,
        "elapsed": outcome.elapsed,
        "result": outcome.result.to_dict() if outcome.result is not None else None,
        "error": outcome.error,
        "traceback": outcome.traceback,
    }


def outcome_from_payload(data: Dict[str, object]) -> RunOutcome:
    """Rebuild an outcome from :func:`outcome_to_payload` output."""
    return RunOutcome(
        spec=RunSpec.from_dict(data["spec"]),
        status=str(data["status"]),
        elapsed=float(data.get("elapsed", 0.0)),
        result=ExperimentResult.from_optional_dict(data.get("result")),
        error=data.get("error"),
        traceback=data.get("traceback"),
    )


class CampaignExecutor:
    """Runs campaigns, optionally in parallel and against a result store.

    Two ways to run, picked per construction:

    * ``jobs == 1`` and no farm -- inline, serial: the determinism oracle;
    * a :class:`repro.farm.RunFarm` -- ``farm``, or, without one and with
      ``jobs > 1``, :attr:`forks`: N worker processes forked from the
      farm's dispatch loop (``jobs`` is ignored when ``farm`` is given).
      A single pending run still executes inline with ``jobs > 1``.

    Both persist outcomes into the store *as they complete* (streaming
    persistence), so the analysis CLI works against a still-running
    campaign.
    """

    def __init__(self, store: Optional[ResultStore] = None, jobs: int = 1,
                 farm: Optional[object] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store
        self.jobs = jobs
        self.farm = farm
        #: The fork-slot farm ``jobs > 1`` runs on when no ``farm`` is given.
        self.forks = None
        if farm is None and jobs > 1:
            # Imported here: the farm module imports this one.
            from repro.farm.farm import RunFarm, fork_slots

            self.forks = RunFarm(fork_slots(jobs))

    def run(
        self,
        specs: Sequence[RunSpec],
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
        fail_fast: bool = False,
    ) -> List[RunOutcome]:
        """Execute ``specs``; outcomes come back in the input order.

        With ``fail_fast`` the campaign stops at the first failure: remaining
        serial runs are skipped, queued parallel runs are cancelled, and the
        returned list only contains the outcomes that finished.
        """
        specs = list(specs)
        total = len(specs)
        outcomes: List[Optional[RunOutcome]] = [None] * total
        completed = 0

        # Resume: serve cache hits from the store without re-running.
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = self._cached_outcome(spec) if resume else None
            if cached is not None:
                outcomes[index] = cached
                completed += 1
                if progress:
                    progress(completed, total, cached)
            else:
                pending.append(index)

        farm = self.farm if self.farm is not None else (
            self.forks if len(pending) > 1 else None)
        if farm is None:
            for index in pending:
                outcome = execute_run(specs[index])
                completed += 1
                self._record(outcomes, index, outcome, completed, total, progress)
                if fail_fast and not outcome.ok:
                    break
        else:
            # The farm yields outcomes in completion order and handles
            # fail_fast itself (stops dispensing, drains in-flight runs);
            # closing it on any exit reaps its workers.
            with contextlib.closing(farm.dispatch(
                    [(index, specs[index]) for index in pending],
                    fail_fast=fail_fast)) as dispatched:
                for index, outcome in dispatched:
                    completed += 1
                    self._record(outcomes, index, outcome, completed, total,
                                 progress)

        return [outcome for outcome in outcomes if outcome is not None]

    # -- helpers -------------------------------------------------------
    def _cached_outcome(self, spec: RunSpec) -> Optional[RunOutcome]:
        if self.store is None:
            return None
        # A torn artifact loads as None (the store moves it aside): a miss.
        entry = self.store.load(spec.config_hash())
        if entry is None or not entry.ok:
            return None
        return RunOutcome(
            spec=spec,
            status=STATUS_CACHED,
            elapsed=entry.elapsed,
            result=entry.result,
        )

    def _record(
        self,
        outcomes: List[Optional[RunOutcome]],
        index: int,
        outcome: RunOutcome,
        completed: int,
        total: int,
        progress: Optional[ProgressCallback],
    ) -> None:
        outcomes[index] = outcome
        if self.store is not None:
            self.store.save(
                StoreEntry(
                    spec=outcome.spec,
                    status=outcome.status,
                    elapsed=outcome.elapsed,
                    result=outcome.result,
                    error=outcome.error,
                    traceback=outcome.traceback,
                    created_unix=time.time(),
                )
            )
        if progress:
            progress(completed, total, outcome)


def print_progress(completed: int, total: int, outcome: RunOutcome) -> None:
    """Default progress reporter: one line per finished run."""
    mark = {STATUS_OK: "ok", STATUS_CACHED: "cached", STATUS_FAILED: "FAILED"}.get(
        outcome.status, outcome.status
    )
    line = (
        f"[{completed}/{total}] {outcome.spec.label()} "
        f"({outcome.spec.config_hash()}) .. {mark} ({outcome.elapsed:.2f}s)"
    )
    if outcome.error:
        line += f"  {outcome.error}"
    print(line, flush=True)
