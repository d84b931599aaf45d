"""The farm's JSON-lines-over-stdio worker protocol.

A farm worker (``python -m repro.farm worker``, or for ``--jobs N`` a fork
of the driver) runs :func:`worker_main` until its stdin closes: one JSON
request per line in, one JSON response per line out, in order.  The driver
keeps one worker per slot per dispatch, so start-up is paid once per slot,
not per run (every run numbers its own flows and queries, so back-to-back
runs in one interpreter stay byte-identical).  Everything is plain JSON -- no
pickling -- so any command that starts this worker with a pipe to its stdio
can serve a slot.

Requests (blank lines are ignored) and their responses::

    {"protocol": 2, "spec": {... RunSpec dict ...}}   execute one run
    {"protocol": 2, "ping": true}                     health check / handshake

    {"protocol": 2, "outcome": {... outcome payload ...}}
    {"protocol": 2, "pong": true}

Stdout belongs to the protocol: a run executes with ``sys.stdout`` pointed
at stderr, whose tail the driver keeps for loss messages.  A malformed
request is a *worker-side* error: the worker says why on stderr and exits 2
without answering, which the farm surfaces as a worker loss (and retries the
run on a fresh worker).  A run that merely fails is a normal response -- the
failure travels inside the outcome payload, as on the inline path.

The driver opens every worker with a ping under a deadline.  A version 1
worker reads stdin to EOF before answering, so it never pongs; a version 1
driver's request fails this worker's version check: mismatched checkouts
fail loudly both ways instead of silently mis-executing.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Dict, Optional, TextIO

from repro.process import WorkerLossError

#: Bump when the request/response shape changes incompatibly.
PROTOCOL_VERSION = 2


def run_request(spec_payload: Dict[str, object]) -> Dict[str, object]:
    """The request dict asking a worker to execute one run."""
    return {"protocol": PROTOCOL_VERSION, "spec": spec_payload}


def ping_request() -> Dict[str, object]:
    return {"protocol": PROTOCOL_VERSION, "ping": True}


def parse_response(stdout_text: str) -> Dict[str, object]:
    """Extract the response payload from a worker's stdout.

    Only the *last* non-empty line is parsed: library code on the worker
    side must not print to stdout, but a stray diagnostic line from a deep
    dependency should not kill the run.  Raises :class:`WorkerLossError`
    when no parseable response is found or the version disagrees.
    """
    lines = [line for line in stdout_text.splitlines() if line.strip()]
    if not lines:
        raise WorkerLossError("worker produced no output")
    try:
        response = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerLossError(
            f"unparseable worker response {lines[-1][:200]!r}: {exc}") from exc
    if not isinstance(response, dict):
        raise WorkerLossError(
            f"worker response is not an object: {response!r}")
    version = response.get("protocol")
    if version != PROTOCOL_VERSION:
        raise WorkerLossError(
            f"worker protocol version {version!r} != {PROTOCOL_VERSION} "
            "(mismatched checkouts between driver and host?)")
    return response


def worker_main(stdin: Optional[TextIO] = None,
                stdout: Optional[TextIO] = None,
                stderr: Optional[TextIO] = None) -> int:
    """``python -m repro.farm worker``: answer request lines until EOF."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    for raw in stdin:
        if not raw.strip():
            continue
        try:
            request = json.loads(raw)
            if not isinstance(request, dict):
                raise ValueError(f"request must be an object, got {request!r}")
            version = request.get("protocol")
            if version != PROTOCOL_VERSION:
                raise ValueError(
                    f"protocol version {version!r} != {PROTOCOL_VERSION}")
            if not request.get("ping") and "spec" not in request:
                raise ValueError("request carries neither 'spec' nor 'ping'")
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"repro.farm worker: malformed request: {exc}", file=stderr)
            return 2

        if request.get("ping"):
            response: Dict[str, object] = {"protocol": PROTOCOL_VERSION,
                                           "pong": True}
        else:
            # Imported lazily so a ping stays cheap on slow hosts.
            from repro.campaign.executor import execute_run, outcome_to_payload
            from repro.campaign.spec import RunSpec

            try:
                spec = RunSpec.from_dict(request["spec"])
            except (KeyError, TypeError, ValueError) as exc:
                print(f"repro.farm worker: bad run spec: {exc}", file=stderr)
                return 2
            # A print inside the run must not be read as its response line.
            with contextlib.redirect_stdout(stderr):
                outcome = execute_run(spec)
            response = {"protocol": PROTOCOL_VERSION,
                        "outcome": outcome_to_payload(outcome)}

        # Unsorted: a row's columns print in the order the run built them.
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
    return 0
