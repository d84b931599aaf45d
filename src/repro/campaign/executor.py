"""Parallel campaign execution over a worker-process pool.

The executor turns a list of :class:`~repro.campaign.spec.RunSpec`s into
:class:`RunOutcome`s.  Each run executes in isolation -- its own worker
process when ``jobs > 1`` (via :class:`concurrent.futures.ProcessPoolExecutor`),
inline when ``jobs == 1`` -- and a crashing run is captured as a ``failed``
outcome instead of aborting the campaign.  Outcomes are returned in the order
the specs were given, regardless of completion order, so parallel campaigns
are reproducible run-for-run.

When a :class:`~repro.campaign.store.ResultStore` is attached, every outcome
is persisted as it completes, and ``resume=True`` skips any spec whose config
hash is already stored with status ``ok`` (the cached result is loaded back
instead of re-simulated).
"""

from __future__ import annotations

import concurrent.futures
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
        from repro.workloads import reset_workload_ids

        runner = get_runner(spec.experiment)
        # Per-run isolation: results must depend only on the spec, not on
        # whatever ran earlier in this (possibly reused worker) process.
        reset_workload_ids()
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
    """The JSON-serializable form of an outcome (pool and farm wire format)."""
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


def _execute_run_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker-process entry point: dict in, dict out (both picklable)."""
    return outcome_to_payload(execute_run(RunSpec.from_dict(payload)))


class CampaignExecutor:
    """Runs campaigns, optionally in parallel and against a result store.

    Three execution backends, picked per construction:

    * ``jobs == 1`` and no farm -- inline, serial;
    * ``jobs > 1`` -- a local :class:`~concurrent.futures.ProcessPoolExecutor`;
    * ``farm`` -- a :class:`repro.farm.RunFarm` (inline / subprocess pool /
      ssh hosts) with retry-on-worker-loss; ``jobs`` is ignored.

    All three persist outcomes into the store *as they complete* (streaming
    persistence), so ``python -m repro.campaign report`` and the analysis
    CLI work against a still-running campaign.
    """

    def __init__(self, store: Optional[ResultStore] = None, jobs: int = 1,
                 farm: Optional[object] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store
        self.jobs = jobs
        self.farm = farm

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

        if self.farm is not None and pending:
            # Farm dispatch yields outcomes in completion order and handles
            # fail_fast itself (stops dispensing, drains in-flight runs).
            for index, outcome in self.farm.dispatch(
                [(index, specs[index]) for index in pending],
                fail_fast=fail_fast,
            ):
                completed += 1
                self._record(outcomes, index, outcome, completed, total, progress)
        elif self.jobs == 1 or len(pending) <= 1:
            for index in pending:
                outcome = execute_run(specs[index])
                completed += 1
                self._record(outcomes, index, outcome, completed, total, progress)
                if fail_fast and not outcome.ok:
                    break
        else:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending))
            ) as pool:
                futures = {
                    pool.submit(_execute_run_payload, specs[index].to_dict()):
                        (index, time.perf_counter())
                    for index in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    index, _ = futures[future]
                    outcome = self._pool_outcome(future, futures, specs)
                    completed += 1
                    self._record(outcomes, index, outcome, completed, total, progress)
                    if fail_fast and not outcome.ok:
                        pool.shutdown(wait=True, cancel_futures=True)
                        # Runs that were already in flight when the failure
                        # surfaced have finished by now (shutdown waited).
                        # Drain them into the store -- dropping them would
                        # silently re-simulate finished-ok runs on --resume.
                        for other, (other_index, _) in futures.items():
                            if outcomes[other_index] is not None:
                                continue
                            if other.cancelled() or not other.done():
                                continue
                            drained = self._pool_outcome(other, futures, specs)
                            completed += 1
                            self._record(outcomes, other_index, drained,
                                         completed, total, progress)
                        break

        return [outcome for outcome in outcomes if outcome is not None]

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _pool_outcome(future, futures, specs) -> RunOutcome:
        """The outcome of one pool future, surviving worker death.

        A worker that dies mid-run (OOM kill, segfault in a C extension)
        raises from ``future.result()`` instead of returning a payload.
        The outcome then carries the wall time since submission and the
        pool-side exception's traceback, so ``status`` reports show when
        and why the run was lost instead of ``elapsed=0.0`` and nothing.
        """
        index, submitted = futures[future]
        try:
            return outcome_from_payload(future.result())
        except Exception as exc:  # worker died (e.g. OOM kill)
            return RunOutcome(
                spec=specs[index],
                status=STATUS_FAILED,
                elapsed=time.perf_counter() - submitted,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback_module.format_exc(),
            )

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
