#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 bench/run.py --workload fabric_websearch --seed 1
    python3 bench/run.py --all --seed 1
    python3 bench/run.py --workload switch_burst --seed 1 --trace 1

The driver's form is ``--workload W --seed N --seconds S --trace 0|1``;
the last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``).  The
line before it is an ``info`` document: sample counts, min/max, exact
event/packet counts and document sha256s.

Shape of one invocation (what keeps same-code runs in agreement):

* this process only orchestrates (stdlib only).  The work happens in
  :data:`SESSIONS` fresh interpreters, **one after another**, each doing
  imports -> spec generation/parse/validate -> one untimed warm-up
  repetition (that interval, from process spawn, is one ``setup_s``
  sample) -> N timed repetitions of the identical unit of work;
* ``setup_s`` and ``peak_rss_mb`` are the median over the sessions,
  ``wall_s`` / ``cpu_s`` the median over every timed repetition of every
  session (n is stated in the info document; no tail percentile is
  reported because no sample count here has ten values beyond one);
* ``--seconds`` buys repetitions at the frozen nominal length
  (:data:`NOMINAL_REP_S`): 8 s -> 4 sessions x 1 timed repetition.  A
  fresh interpreter is the unit repeated because set-up repeated inside
  one process would hide what the first pass caches.

``--trace 1`` runs a single session instead: warm-up, one untraced
baseline repetition, one repetition under phase spans, one under the
cProfile dispatch attribution, then the workload's twins.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from specs import WORKLOADS  # noqa: E402  (needs BENCH_DIR on the path)

#: Fresh interpreters per end-to-end invocation (= ``setup_s`` samples).
SESSIONS = 4
#: What one repetition is sized to on the reference machine.
NOMINAL_REP_S = 2.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))


def repetitions_per_session(seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_REP_S / SESSIONS))


def spawn_session(workload: str, seed: int, scale: str, reps: int,
                  trace: bool) -> Optional[dict]:
    """Run one session in a fresh interpreter and return its record.

    ``None`` when the session crashed (an error outside the per-operation
    checks, a lost shard process): the caller counts that as one failed
    operation and keeps the other sessions' samples.
    """
    argv = [sys.executable, str(BENCH_DIR / "session.py"),
            "--workload", workload, "--seed", str(seed), "--scale", scale,
            "--reps", str(reps), "--trace", str(int(trace)),
            "--spawned-at", repr(time.time())]
    # A pinned hash seed keeps dict/set layouts, and with them the timings,
    # the same in every session (documents do not depend on it: tier-1
    # pins that under PYTHONHASHSEED=random).
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Bytecode caching as Python ships it, whatever the caller's shell
    # says: with PYTHONDONTWRITEBYTECODE set, a fresh checkout recompiles
    # the program in every interpreter the benchmark and the farm spawn
    # (+70 ms each: +35 % on campaign_farm).  The first session of a
    # checkout fills src/**/__pycache__ during its warm-up.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          cwd=REPO_ROOT, check=False, env=env)
    if done.returncode != 0:
        print(f"bench: session for {workload!r} exited {done.returncode}",
              file=sys.stderr, flush=True)
        return None
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def summarize(values):
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def run_end_to_end(workload: str, seed: int, scale: str, reps: int,
                   sessions: int):
    spawned = [spawn_session(workload, seed, scale, reps, trace=False)
               for _ in range(sessions)]
    records = [record for record in spawned if record is not None]
    crashed = len(spawned) - len(records)
    if not records:
        return None
    samples = {
        "setup_s": [r["setup_s"] for r in records],
        "wall_s": [rep["wall_s"] for r in records for rep in r["reps"]],
        "cpu_s": [rep["cpu_s"] for r in records for rep in r["reps"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    # A crashed session is one operation attempted and failed.
    attempted = sum(r["attempted"] for r in records) + crashed
    problems = [p for r in records for p in r["problems"]]
    problems += ["a session crashed (exit status on stderr)"] * crashed
    # Cross-process determinism: every session must have produced the
    # same documents; a session that did not fails one operation.
    for index, record in enumerate(records[1:], start=2):
        if record["digests"] != records[0]["digests"]:
            problems.append(f"session {index}: document sha256s differ "
                            "from session 1's")
    failed = min(attempted, len(problems))
    info = {
        "workload": workload, "seed": seed, "scale": scale,
        "sessions": sessions, "crashed_sessions": crashed,
        "timed_repetitions_per_session": reps,
        "samples": {name: summarize(values)
                    for name, values in samples.items()},
        "counts": records[0]["counts"],
        "document_sha256": records[0]["digests"],
        "problems": problems[:20],
    }
    metrics = {name: {"value": statistics.median(samples[name]),
                      "unit": unit} for name, unit in END_TO_END}
    return info, {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def run_traced(workload: str, seed: int, scale: str):
    record = spawn_session(workload, seed, scale, reps=1, trace=True)
    if record is None:
        return None
    info = {
        "workload": workload, "seed": seed, "scale": scale,
        "trace_file": record["trace_file"],
        "layers": record["layers"],  # null = hook point did not resolve
        "unresolved": record["unresolved"],
        "counts": record["counts"],
        "document_sha256": record["digests"],
        "problems": record["problems"][:20],
    }
    failed = min(record["attempted"], len(record["problems"]))
    # The driver wants numbers: an unresolved hook reads 0 there (and
    # null, with a warning, everywhere else).
    metrics = {name: {"value": 0 if entry["value"] is None
                      else entry["value"], "unit": entry["unit"]}
               for name, entry in record["layers"].items()}
    return info, {"correct": failed == 0, "attempted": record["attempted"],
                  "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run the four workloads one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="timed seconds to buy (at the nominal "
                             "repetition length)")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=(0, 1),
                        help="the separate traced run (per-layer ledger)")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' is the smoke-test size; only 'full' "
                             "is the benchmark")
    parser.add_argument("--sessions", type=int, default=SESSIONS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")

    # Refuse to run outside a checkout of the program: exit non-zero and
    # print no result.
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: src/repro not found next to bench/; nothing to "
              "measure", file=sys.stderr)
        return 2

    reps = repetitions_per_session(args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    for workload in (WORKLOADS if args.all else (args.workload,)):
        if args.trace:
            outcome = run_traced(workload, args.seed, args.scale)
        else:
            outcome = run_end_to_end(workload, args.seed, args.scale, reps,
                                     args.sessions)
        if outcome is None:
            # Every session crashed: there is no sample to report.
            print(f"bench: no session of {workload!r} survived; no result",
                  file=sys.stderr)
            return 1
        info, result = outcome
        print(json.dumps({"info": info}, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
