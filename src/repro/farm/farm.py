"""Run farms: dispatch campaign runs across worker processes.

A :class:`RunFarm` turns ``(index, RunSpec)`` jobs into ``(index,
RunOutcome)`` results in completion order, which the
:class:`~repro.campaign.executor.CampaignExecutor` streams into its store.
Each :class:`WorkerSlot` says how its worker starts: :func:`subprocess_slots`
(``--farm subprocess[:N]``) spawn ``python -m repro.farm worker``;
:func:`fork_slots` (``CampaignExecutor(jobs=N)``) fork this process, so the
worker inherits its imports.  The serial ``jobs=1`` path is the oracle.

:meth:`RunFarm.dispatch` is one ``selectors`` loop on the calling thread over
every worker's stdout and stderr; a slot is idle, handshaking, running a
request under a deadline, or backing off until a time.  The farm starts no
thread, which is what makes forking from that loop safe.  A slot's worker
starts on its first run, answers a ping, then one JSON line per run
(:mod:`repro.farm.protocol`), and is closed -- stdin EOF, a short grace,
SIGKILL, ``waitpid`` -- when the dispatch (or ``check``) ends.  A worker is a
:class:`~repro.process.WorkerProcess`, the one process primitive in
``repro``: the sharded executor's shard workers start, speak and are reaped
through it too.

A worker loss (EOF, non-zero exit, garbage line, timeout, failed handshake)
is not a run failure: the run re-enters the queue after an exponential
backoff that the losing slot sits out, so a fresh worker on another slot
tends to take it; after ``max_attempts`` losses, or when a fail-fast halt
cancels the retry, it is a failed outcome.  POSIX only.
"""

from __future__ import annotations

import collections
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Deque, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.campaign.executor import RunOutcome, STATUS_FAILED, outcome_from_payload
from repro.campaign.spec import RunSpec
from repro.farm.protocol import (parse_response, ping_request, run_request,
                                 worker_main)
from repro.process import Command, WorkerLossError, WorkerProcess, _readable

#: A queued run: (index, spec, attempt, outcome to report if it never runs --
#: set on a retry, ``None`` on a first attempt).
_Job = Tuple[int, RunSpec, int, Optional[RunOutcome]]

#: Seconds a freshly started worker has to answer the opening ping.
HANDSHAKE_TIMEOUT_S = 30.0
_NO_PONG = " (no pong -- older checkout on the host?)"


@dataclass
class WorkerSlot:
    """One unit of execution capacity, its health counters, and its state
    in the dispatch loop."""

    name: str
    #: How the worker starts: "subprocess" or "fork".
    host: str
    runs_ok: int = 0
    runs_failed: int = 0
    #: Worker deaths observed on this slot (not run failures).
    losses: int = 0
    #: Runs this slot handed back for retry elsewhere after a loss.
    retries: int = 0
    elapsed: float = 0.0
    #: ``(argv, env)`` that spawns the slot's worker, or the body it forks.
    command: Command = worker_main
    #: Worker processes started for this slot (one per dispatch when healthy).
    spawned: int = 0
    #: The live worker, from the slot's first run until the dispatch ends.
    worker: Optional[WorkerProcess] = field(default=None, repr=False)
    #: "idle", "handshake", "run" or "backoff".
    state: str = "idle"
    #: The run the slot holds: in flight, or waiting out its backoff.
    job: Optional[_Job] = field(default=None, repr=False)
    #: ``time.monotonic()`` at which the handshake, run or backoff expires.
    deadline: Optional[float] = None
    #: ``time.perf_counter()`` when the slot took its job.
    started: float = 0.0

    def detach(self) -> WorkerProcess:
        """The slot's worker, handed over for closing; the slot has none after."""
        worker, self.worker = self.worker, None
        return worker

    def health_row(self) -> Dict[str, object]:
        return {
            "worker": self.name,
            "host": self.host,
            "ok": self.runs_ok,
            "failed": self.runs_failed,
            "lost": self.losses,
            "retried": self.retries,
            "elapsed": round(self.elapsed, 3),
            "state": (f"running {self.job[1].label()}"
                      if self.state in ("handshake", "run") else "idle"),
            "spawned": self.spawned,
        }


class RunFarm:
    """Worker slots plus the one single-threaded dispatch loop."""

    def __init__(self, slots: Sequence[WorkerSlot],
                 max_attempts: int = 3, backoff_s: float = 0.5,
                 timeout_s: Optional[float] = None) -> None:
        if not hasattr(os, "fork"):
            raise ValueError(
                f"the run farm is POSIX only: os.fork is missing on {sys.platform}")
        if not slots:
            raise ValueError("a farm needs at least one worker slot")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s cannot be negative, got {backoff_s}")
        self.slots = list(slots)
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        #: Seconds one request may take before its worker counts as lost.
        self.timeout_s = timeout_s
        #: Called with the health rows whenever a slot changes state (the
        #: CampaignBoard's worker section).
        self.on_worker: Optional[Callable[[List[Dict[str, object]]], None]] = None

    # -- health ---------------------------------------------------------
    def health_rows(self) -> List[Dict[str, object]]:
        return [slot.health_row() for slot in self.slots]

    def describe(self) -> str:
        return f"{self.slots[0].host} ({len(self.slots)} workers)"

    def check(self) -> List[Tuple[str, bool, str]]:
        """Start and ping every slot's worker; ``(slot, reachable, detail)``."""
        rows: List[Tuple[str, bool, str]] = []
        for slot in self.slots:
            start = time.perf_counter()
            try:
                worker = self._spawn(slot)
                worker.send(ping_request())
                response = parse_response(
                    worker.reply(HANDSHAKE_TIMEOUT_S, _NO_PONG))
                if not response.get("pong"):
                    raise WorkerLossError(f"unexpected response {response!r}")
                rows.append((slot.name, True,
                             f"pong in {time.perf_counter() - start:.2f}s"))
            except WorkerLossError as exc:
                rows.append((slot.name, False, str(exc)))
            finally:
                if slot.worker is not None:
                    slot.detach().close()
        return rows

    def _spawn(self, slot: WorkerSlot) -> WorkerProcess:
        slot.worker = WorkerProcess(slot.command)
        slot.spawned += 1
        return slot.worker

    def _notify(self) -> None:
        if self.on_worker is not None:
            self.on_worker(self.health_rows())

    def _outcome(self, response: Dict[str, object]) -> RunOutcome:
        """The run outcome a response carries; a loss if it carries none."""
        try:
            return outcome_from_payload(response["outcome"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkerLossError(
                f"no outcome in worker response {response!r}: {exc!r}") from exc

    # -- dispatch -------------------------------------------------------
    def dispatch(self, jobs: Iterable[Tuple[int, RunSpec]],
                 fail_fast: bool = False
                 ) -> Iterator[Tuple[int, RunOutcome]]:
        """Run ``jobs`` across the slots, yielding in completion order.

        With ``fail_fast``, the first failed outcome stops new work from
        being dispensed; runs already in flight still finish and are
        yielded (the executor persists them -- nothing silently dropped),
        and a run whose worker was lost yields its loss as a failed
        outcome instead of being retried.  However the generator ends --
        exhausted, closed, or abandoned by a consumer that raised -- it
        reaps every worker it started.
        """
        queue: Deque[_Job] = collections.deque(
            (index, spec, 1, None) for index, spec in jobs)
        remaining = len(queue)
        # Idle slots, longest-idle first: a slot back from its backoff
        # queues behind the others, so a healthy worker takes the retry.
        idle = collections.deque(self.slots)
        finished: Deque[Tuple[int, RunOutcome]] = collections.deque()
        halted = False

        def send(slot: WorkerSlot, state: str, timeout_s: Optional[float]) -> None:
            slot.state = state
            slot.deadline = None if timeout_s is None else time.monotonic() + timeout_s
            slot.worker.send(ping_request() if state == "handshake"
                             else run_request(slot.job[1].to_dict()))

        def settle(slot: WorkerSlot, outcome: RunOutcome) -> None:
            finished.append((slot.job[0], outcome))
            slot.state, slot.job, slot.deadline = "idle", None, None
            idle.append(slot)
            self._notify()

        def lose(slot: WorkerSlot, exc: WorkerLossError) -> None:
            index, spec, attempt, _ = slot.job
            slot.losses += 1
            exhausted = attempt >= self.max_attempts
            error = (f"worker lost after {attempt} attempts "
                     f"(last on {slot.name}): {exc}" if exhausted else
                     f"worker lost on {slot.name} and campaign halted "
                     f"before retry: {exc}")
            # On a retry, `lost` is also the run's outcome if a halt cancels it.
            lost = RunOutcome(spec=spec, status=STATUS_FAILED,
                              elapsed=time.perf_counter() - slot.started,
                              error=error, traceback=str(exc))
            if exhausted or halted:
                settle(slot, lost)
                return
            slot.retries += 1
            slot.state, slot.job = "backoff", (index, spec, attempt + 1, lost)
            slot.deadline = time.monotonic() + min(
                self.backoff_s * (2 ** (attempt - 1)), 10.0)
            self._notify()

        def respond(slot: WorkerSlot, line: str) -> None:
            try:
                response = parse_response(line)
                if slot.state == "handshake":
                    send(slot, "run", self.timeout_s)
                    return
                outcome = self._outcome(response)
            except WorkerLossError as exc:
                slot.detach().close(kill=True)
                lose(slot, exc)
                return
            if outcome.status == STATUS_FAILED:
                slot.runs_failed += 1
            else:
                slot.runs_ok += 1
            slot.elapsed += outcome.elapsed
            settle(slot, outcome)

        try:
            while remaining:
                while queue and idle:
                    slot = idle.popleft()
                    slot.job = queue.popleft()
                    slot.started = time.perf_counter()
                    if slot.worker is not None:
                        send(slot, "run", self.timeout_s)
                    else:
                        try:
                            self._spawn(slot)
                        except WorkerLossError as exc:
                            lose(slot, exc)
                            continue
                        send(slot, "handshake", HANDSHAKE_TIMEOUT_S)
                    self._notify()
                if not finished:
                    owners = {fd: slot for slot in self.slots
                              if slot.worker is not None
                              for fd in slot.worker.open}
                    deadlines = [slot.deadline for slot in self.slots
                                 if slot.deadline is not None]
                    timeout = min(deadlines) - time.monotonic() if deadlines else None
                    for fd in _readable(owners, timeout):
                        slot = owners[fd]
                        worker = slot.worker
                        if worker is None:
                            continue  # lost earlier in this batch
                        if not worker.read(fd):
                            if fd == worker.stdout:
                                lose(slot, slot.detach().exited())
                        elif fd == worker.stdout and (
                                line := worker.line()) is not None:
                            respond(slot, line)
                now = time.monotonic()
                for slot in self.slots:
                    if slot.deadline is None or slot.deadline > now:
                        continue
                    if slot.state == "backoff":
                        queue.append(slot.job)
                        slot.state, slot.job, slot.deadline = "idle", None, None
                        idle.append(slot)
                    elif slot.state == "handshake":
                        lose(slot, slot.detach().timed_out(
                            HANDSHAKE_TIMEOUT_S, _NO_PONG))
                    else:
                        lose(slot, slot.detach().timed_out(self.timeout_s))
                while finished:
                    index, outcome = finished.popleft()
                    remaining -= 1
                    yield index, outcome
                    if fail_fast and not outcome.ok and not halted:
                        halted = True
                        # Undispensed runs never start; a retry, queued or
                        # still backing off, owes its run the loss.
                        remaining -= sum(lost is None for *_, lost in queue)
                        finished.extend((index, lost)
                                        for index, _, _, lost in queue
                                        if lost is not None)
                        queue.clear()
                        for slot in self.slots:
                            if slot.state == "backoff":
                                settle(slot, slot.job[3])
        finally:
            for slot in self.slots:
                if slot.worker is not None:
                    # Abandoned mid-dispatch: do not wait for in-flight runs.
                    slot.detach().close(kill=remaining > 0)
                slot.state, slot.job, slot.deadline = "idle", None, None


def _subprocess_env() -> Dict[str, str]:
    """The spawn environment: inherited, with this checkout's ``repro`` first
    on ``PYTHONPATH``."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    path = [src_dir, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def subprocess_slots(workers: int, python: Optional[Sequence[str]] = None
                     ) -> List[WorkerSlot]:
    """``workers`` slots, each spawning ``python -m repro.farm worker``."""
    command = ([*(python or [sys.executable]), "-m", "repro.farm", "worker"],
               _subprocess_env())
    return [WorkerSlot(name=f"proc/{i}", host="subprocess", command=command)
            for i in range(workers)]


def fork_slots(workers: int) -> List[WorkerSlot]:
    """``workers`` slots, each forking this process into its worker."""
    return [WorkerSlot(name=f"fork/{i}", host="fork") for i in range(workers)]


def make_farm(spec: str, jobs: int = 1) -> RunFarm:
    """Build a farm from a CLI ``--farm`` string.

    Forms: ``subprocess`` (slot count from ``jobs`` when > 1, else the
    machine's CPU count) and ``subprocess:N``.
    """
    spec = spec.strip()
    if spec == "subprocess" or spec.startswith("subprocess:"):
        _, _, count = spec.partition(":")
        default = jobs if jobs > 1 else os.cpu_count() or 2
        return RunFarm(subprocess_slots(int(count) if count else default))
    raise ValueError(
        f"unknown farm spec {spec!r}; expected 'subprocess[:N]'")
