"""Run farms: dispatch campaign runs across worker processes.

A :class:`RunFarm` owns a fixed set of :class:`WorkerSlot`\\ s and turns a
list of ``(index, RunSpec)`` jobs into ``(index, RunOutcome)`` results in
completion order, which the :class:`~repro.campaign.executor.CampaignExecutor`
streams into its :class:`~repro.campaign.store.ResultStore` as they arrive.
The one backend, :class:`SubprocessFarm` (``--farm subprocess[:N]``), backs
each of N slots with one ``python -m repro.farm worker`` subprocess on this
machine; the serial executor path (``jobs=1``, no farm) is the in-process
determinism oracle every farm store is compared against.

A slot's ``(argv, env)`` starts its worker.  A slot spawns its
:class:`WorkerProcess` on its first request, opens it with a ping/pong
handshake, then writes one JSON line and reads one per request
(:mod:`repro.farm.protocol`), and closes it -- stdin EOF, a short grace,
then kill -- when its dispatch loop (or ``check``) ends: a slot costs one
interpreter start per dispatch, and no worker outlives the call that
spawned it.

A worker loss (EOF, non-zero exit, garbage line, no answer within
``timeout_s``, failed handshake) is distinct from a run failure: the dead
process is reaped, the run is retried on a fresh worker with exponential
backoff, preferentially landing on another slot because the losing slot
sits out the backoff window; only after ``max_attempts`` losses, or when a
fail-fast halt cancels the retry, does the run surface as a failed outcome.
"""

from __future__ import annotations

import collections
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaign.executor import (
    RunOutcome,
    STATUS_FAILED,
    outcome_from_payload,
)
from repro.campaign.spec import RunSpec
from repro.farm.protocol import (
    WorkerLossError,
    parse_response,
    ping_request,
    run_request,
)

#: Called with the farm's health rows whenever any slot changes state.
WorkerCallback = Callable[[List[Dict[str, object]]], None]
#: A queued run: (index, spec, attempt, outcome to report if it never runs --
#: set on a retry, ``None`` on a first attempt).
_Job = Tuple[int, RunSpec, int, Optional[RunOutcome]]

#: Seconds a freshly spawned worker has to answer the opening ping.
HANDSHAKE_TIMEOUT_S = 30.0
#: Seconds a worker has to exit after stdin EOF before it is killed.
CLOSE_GRACE_S = 2.0


class WorkerProcess:
    """One live ``repro.farm worker``: a request line in, a response line out.

    Daemon threads drain both pipes from the spawn on -- stdout into a line
    queue (so a read can time out), stderr into a bounded tail kept for the
    loss message -- so a chatty worker never blocks on a full pipe.  Every
    failure is a :class:`WorkerLossError`; the owner's :meth:`close` reaps.
    """

    def __init__(self, argv: Sequence[str], env: Optional[Dict[str, str]]) -> None:
        try:
            self.proc = subprocess.Popen(
                list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, errors="replace", env=env)
        except OSError as exc:
            raise WorkerLossError(f"cannot launch worker {argv!r}: {exc}") from exc
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr_tail: "collections.deque[str]" = collections.deque(maxlen=3)
        self._pumps = [threading.Thread(target=pump, daemon=True)
                       for pump in (self._pump_stdout, self._pump_stderr)]
        for thread in self._pumps:
            thread.start()

    def _pump_stdout(self) -> None:
        with self.proc.stdout as stream:
            for line in stream:
                self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self) -> None:
        with self.proc.stderr as stream:
            for line in stream:
                if line.strip():
                    self._stderr_tail.append(line.strip()[-300:])

    def request(self, payload: Dict[str, object], timeout_s: Optional[float],
                timeout_hint: str = "") -> Dict[str, object]:
        """Write one request line, read one response line within ``timeout_s``."""
        try:
            self.proc.stdin.write(json.dumps(payload, sort_keys=True) + "\n")
            self.proc.stdin.flush()
        except OSError:
            pass  # already dead: the read below finds EOF and says why
        try:
            line = self._lines.get(timeout=timeout_s)
        except queue.Empty:
            self.proc.kill()
            raise WorkerLossError(f"worker timed out after {timeout_s}s: "
                                  f"{self.proc.args[0]}{timeout_hint}") from None
        if line is None:
            raise WorkerLossError(f"worker exited {self.close()}: "
                                  + (" | ".join(self._stderr_tail) or "no stderr"))
        return parse_response(line)

    def close(self) -> int:
        """Stdin EOF, a short grace, then kill; reaps and returns the exit code."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(CLOSE_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for thread in self._pumps:  # both pipes at EOF: the stderr tail is complete
            thread.join(timeout=1.0)
        return self.proc.returncode


@dataclass
class WorkerSlot:
    """One unit of execution capacity plus its health counters."""

    name: str
    host: str
    runs_ok: int = 0
    runs_failed: int = 0
    #: Worker deaths observed on this slot (not run failures).
    losses: int = 0
    #: Runs this slot handed back for retry elsewhere after a loss.
    retries: int = 0
    elapsed: float = 0.0
    busy: bool = False
    current: str = ""
    #: ``(argv, env)`` that starts this slot's worker.
    command: Optional[Tuple[List[str], Optional[Dict[str, str]]]] = None
    #: Worker processes started for this slot (one per dispatch when healthy).
    spawned: int = 0
    #: The live worker, from the slot's first request until its release.
    worker: Optional[WorkerProcess] = field(default=None, repr=False)

    def health_row(self) -> Dict[str, object]:
        return {
            "worker": self.name,
            "host": self.host,
            "ok": self.runs_ok,
            "failed": self.runs_failed,
            "lost": self.losses,
            "retried": self.retries,
            "elapsed": round(self.elapsed, 3),
            "state": (f"running {self.current}" if self.busy else "idle"),
            "spawned": self.spawned,
        }


class RunFarm:
    """Base farm: slot bookkeeping plus the threaded dispatch loop."""

    kind = "farm"

    def __init__(self, slots: Sequence[WorkerSlot],
                 max_attempts: int = 3, backoff_s: float = 0.5,
                 timeout_s: Optional[float] = None) -> None:
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
        #: Optional health hook (the CampaignBoard's worker section).
        self.on_worker: Optional[WorkerCallback] = None
        self._lock = threading.Lock()

    # -- worker lifetime -----------------------------------------------
    def run_payload(self, slot: WorkerSlot,
                    request: Dict[str, object]) -> Dict[str, object]:
        """Execute one protocol request on ``slot``'s worker, spawned (and
        pinged: a v1 worker reads stdin to EOF first, so never pongs) on
        first use; returns the response.

        Raises :class:`WorkerLossError` on worker death, silence or garbage
        output (a failed *run* comes back inside a normal response); the
        caller then :meth:`_release`\\ s the slot, so the next request respawns.
        """
        if slot.worker is None:
            slot.worker = WorkerProcess(*slot.command)
            slot.spawned += 1
            slot.worker.request(ping_request(), HANDSHAKE_TIMEOUT_S,
                                " (no pong -- older checkout on the host?)")
        return slot.worker.request(request, self.timeout_s)

    def _release(self, slot: WorkerSlot) -> None:
        """Close and reap ``slot``'s worker, if it has one."""
        worker, slot.worker = slot.worker, None
        if worker is not None:
            worker.close()

    # -- health ---------------------------------------------------------
    def health_rows(self) -> List[Dict[str, object]]:
        return [slot.health_row() for slot in self.slots]

    def describe(self) -> str:
        return f"{self.kind} ({len(self.slots)} workers)"

    def check(self) -> List[Tuple[str, bool, str]]:
        """Ping every slot; returns ``(slot name, reachable, detail)`` rows."""
        rows: List[Tuple[str, bool, str]] = []
        for slot in self.slots:
            start = time.perf_counter()
            try:
                response = self.run_payload(slot, ping_request())
                if not response.get("pong"):
                    raise WorkerLossError(f"unexpected response {response!r}")
            except WorkerLossError as exc:
                rows.append((slot.name, False, str(exc)))
            else:
                rows.append((slot.name, True,
                             f"pong in {time.perf_counter() - start:.2f}s"))
            finally:
                self._release(slot)
        return rows

    def _notify(self) -> None:
        if self.on_worker is None:
            return
        with self._lock:
            self.on_worker(self.health_rows())

    # -- dispatch -------------------------------------------------------
    def dispatch(self, jobs: Iterable[Tuple[int, RunSpec]],
                 fail_fast: bool = False
                 ) -> Iterator[Tuple[int, RunOutcome]]:
        """Run ``jobs`` across the slots, yielding in completion order.

        With ``fail_fast``, the first failed outcome stops new work from
        being dispensed; runs already in flight still finish and are
        yielded (the executor persists them -- nothing silently dropped),
        and a run whose worker was lost yields its loss as a failed
        outcome instead of being retried.
        """
        jobs = list(jobs)
        if not jobs:
            return
        # None on `work` tells one slot to stop.
        work: "queue.Queue[Optional[_Job]]" = queue.Queue()
        # (index, outcome, retry): a slot that lost its worker sends the
        # retry here instead of onto `work`, so re-queueing and the halt's
        # drain both happen on this thread and cannot interleave.
        results: "queue.Queue[Tuple[int, RunOutcome, Optional[_Job]]]" = (
            queue.Queue())
        for index, spec in jobs:
            work.put((index, spec, 1, None))
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=self._slot_loop, args=(slot, work, results, stop),
                name=f"farm-{slot.name}", daemon=True)
            for slot in self.slots
        ]
        for thread in threads:
            thread.start()
        remaining = len(jobs)
        halted = False
        try:
            while remaining:
                index, outcome, retry = results.get()
                if retry is not None and not halted:
                    work.put(retry)
                    continue
                remaining -= 1
                yield index, outcome
                if fail_fast and not outcome.ok and not halted:
                    halted = True
                    stop.set()
                    # Drain undispensed jobs; anything a slot already holds
                    # stays in flight and arrives through `results` above.
                    # A drained retry still owes its run an outcome.
                    while True:
                        try:
                            index, _, _, lost = work.get_nowait()
                        except queue.Empty:
                            break
                        remaining -= 1
                        if lost is not None:
                            yield index, lost
        finally:
            stop.set()
            for slot in self.slots:
                work.put(None)
                worker = slot.worker
                if remaining and worker is not None:
                    # Abandoned mid-dispatch (error, interrupt): do not wait
                    # for in-flight runs; their slots see a loss and stop.
                    worker.proc.kill()
            for thread in threads:
                thread.join(timeout=5.0)

    def _slot_loop(self, slot: WorkerSlot,
                   work: "queue.Queue[Optional[_Job]]",
                   results: "queue.Queue[Tuple[int, RunOutcome, Optional[_Job]]]",
                   stop: threading.Event) -> None:
        try:
            while not stop.is_set():
                job = work.get()
                if job is None:
                    return
                index, spec, attempt, _ = job
                slot.busy, slot.current = True, spec.label()
                self._notify()
                start = time.perf_counter()
                try:
                    outcome = self._run_once(slot, spec)
                except WorkerLossError as exc:
                    self._release(slot)
                    slot.losses += 1
                    slot.busy, slot.current = False, ""
                    self._notify()
                    if attempt >= self.max_attempts:
                        error = (f"worker lost after {attempt} attempts "
                                 f"(last on {slot.name}): {exc}")
                    else:
                        slot.retries += 1
                        # Exponential backoff, slept by the *losing* slot: the
                        # job goes back on the queue after the wait, but this
                        # slot is the last to ask for more work, so an idle
                        # healthy worker picks the retry up first.
                        stop.wait(min(self.backoff_s * (2 ** (attempt - 1)), 10.0))
                        error = (f"worker lost on {slot.name} and campaign "
                                 f"halted before retry: {exc}")
                    lost = RunOutcome(spec=spec, status=STATUS_FAILED,
                                      elapsed=time.perf_counter() - start,
                                      error=error, traceback=str(exc))
                    # `lost` is also the run's outcome if a halt cancels the retry.
                    retry = ((index, spec, attempt + 1, lost)
                             if attempt < self.max_attempts else None)
                    results.put((index, lost, retry))
                    continue
                slot.busy, slot.current = False, ""
                if outcome.status == STATUS_FAILED:
                    slot.runs_failed += 1
                else:
                    slot.runs_ok += 1
                slot.elapsed += outcome.elapsed
                self._notify()
                results.put((index, outcome, None))
        finally:
            self._release(slot)

    def _run_once(self, slot: WorkerSlot, spec: RunSpec) -> RunOutcome:
        response = self.run_payload(slot, run_request(spec.to_dict()))
        payload = response.get("outcome")
        if not isinstance(payload, dict):
            raise WorkerLossError(
                f"worker response carries no outcome: {response!r}")
        try:
            return outcome_from_payload(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkerLossError(
                f"malformed outcome payload: {exc}") from exc


def _subprocess_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The spawn environment: inherit, then guarantee ``repro`` is importable."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (src_dir + os.pathsep + existing if existing
                             else src_dir)
    if extra:
        env.update(extra)
    return env


class SubprocessFarm(RunFarm):
    """N slots, each backed by one local worker subprocess per dispatch."""

    kind = "subprocess"

    def __init__(self, workers: int = 2,
                 python: Optional[Sequence[str]] = None,
                 env: Optional[Dict[str, str]] = None,
                 timeout_s: Optional[float] = None,
                 max_attempts: int = 3, backoff_s: float = 0.5) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        python = list(python) if python is not None else [sys.executable]
        command = ([*python, "-m", "repro.farm", "worker"], _subprocess_env(env))
        super().__init__(
            [WorkerSlot(name=f"proc/{i}", host="subprocess", command=command)
             for i in range(workers)],
            max_attempts=max_attempts, backoff_s=backoff_s, timeout_s=timeout_s)


def make_farm(spec: str, jobs: int = 1) -> RunFarm:
    """Build a farm from a CLI ``--farm`` string.

    Forms: ``subprocess`` (slot count from ``jobs`` when > 1, else the
    machine's CPU count) and ``subprocess:N``.
    """
    spec = spec.strip()
    if spec == "subprocess" or spec.startswith("subprocess:"):
        _, _, count = spec.partition(":")
        if count:
            workers = int(count)
        elif jobs > 1:
            workers = jobs
        else:
            workers = os.cpu_count() or 2
        return SubprocessFarm(workers=workers)
    raise ValueError(
        f"unknown farm spec {spec!r}; expected 'subprocess[:N]'")
