#!/usr/bin/env python3
"""Do two sets of runs of the *same* code agree within the bounds?

    python3 bench/repeat_check.py                 # 2 sets x 10 seeds x 4 workloads
    python3 bench/repeat_check.py --runs 3 --workload switch_burst

Runs the benchmark the way its contract prescribes -- set A, then set B,
each ``--runs`` invocations per workload, every invocation with another
``--seed``, the workload order alternating between rounds -- and prints,
per workload x end-to-end metric: both medians with their quartiles, the
spread of each set (distance between the first and third quartile as a
share of the median, ``statistics.quantiles(values, n=4)``), and the
relative gap between the two medians.  Exits non-zero when a spread
(``setup_s`` excepted) or a gap exceeds that metric's bound in
``BENCHMARK.json``, when a run was not correct, or when the two sets did
not produce identical documents for the same seed.

This is the tool behind "same-code runs agree", and the one later issues
use to size a claim: a difference smaller than the gap printed here is
noise on this machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def invoke(command, workload: str, seed: int, seconds: int) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10,
                        help="invocations (= seeds) per workload per set")
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]

    sets = {}
    for label in ("A", "B"):
        results = {w: [] for w in workloads}
        for round_index in range(args.runs):
            order = workloads if round_index % 2 == 0 else workloads[::-1]
            for workload in order:
                seed = round_index + 1
                print(f"set {label} seed {seed} {workload}", file=sys.stderr,
                      flush=True)
                results[workload].append(
                    invoke(contract["command"], workload, seed, seconds))
        sets[label] = results
    # Raw values, for whoever wants to look past the quartiles.
    raw = BENCH_DIR / "out" / "repeat_check.json"
    raw.parent.mkdir(exist_ok=True)
    raw.write_text(json.dumps(sets, indent=1))

    failures = []
    print(f"{'workload':<18}{'metric':<13}{'A q1/med/q3':<30}"
          f"{'B q1/med/q3':<30}{'spread A':>9}{'spread B':>9}{'gap':>8}"
          f"{'bound':>7}")
    for workload in workloads:
        for label, results in sets.items():
            for seed_index, result in enumerate(results[workload]):
                if not result["correct"]:
                    failures.append(f"{workload} set {label} run "
                                    f"{seed_index + 1}: {result['failed']} of "
                                    f"{result['attempted']} operations failed")
        for a, b in zip(sets["A"][workload], sets["B"][workload],
                        strict=True):
            for key in ("document_sha256", "counts"):
                if a["info"][key] != b["info"][key]:
                    failures.append(
                        f"{workload} seed {a['info']['seed']}: {key} "
                        "differs between the sets")
        for metric, bound in bounds.items():
            row, spreads, medians = [], [], []
            for label in ("A", "B"):
                values = [r["metrics"][metric]["value"]
                          for r in sets[label][workload]]
                q1, median, q3 = quartiles(values)
                row.append(f"{q1:.4f}/{median:.4f}/{q3:.4f}")
                spreads.append((q3 - q1) / median)
                medians.append(median)
            # Every end-to-end metric is lower-is-better: B worse than A.
            gap = medians[1] / medians[0] - 1.0
            print(f"{workload:<18}{metric:<13}{row[0]:<30}{row[1]:<30}"
                  f"{spreads[0]:>9.2%}{spreads[1]:>9.2%}{gap:>+8.2%}"
                  f"{bound:>7.0%}")
            if abs(gap) > bound:
                failures.append(f"{workload}/{metric}: medians differ by "
                                f"{gap:+.2%} (bound {bound:.0%})")
            if metric != "setup_s" and max(spreads) > bound:
                failures.append(f"{workload}/{metric}: spread "
                                f"{max(spreads):.2%} exceeds the bound "
                                f"{bound:.0%}")
    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("ok: the two sets agree within every bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
