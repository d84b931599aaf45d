#!/usr/bin/env python3
"""Interleaved A/B pairs of the repo benchmark between two checkouts.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload switch_burst \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --name switch_observation_vs_parent

Pair i runs ``bench/run.py --workload W --seed i`` in both checkouts, the
parent first on odd seeds and the change first on even ones.  Prints one
line per pair, then per end-to-end metric each side's median and quartiles
and the pairs the change won; exits 1 if any pair's document sha256s or
exact counts differ.  The last line is ``{"overheads": {NAME: record}}``,
ready to merge into ``BENCH_perf.json``.  Stdlib only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench(checkout, workload, seed):
    """(end-to-end metric values, (document sha256s, exact counts))."""
    lines = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed)], cwd=checkout, capture_output=True, text=True,
        check=True).stdout.splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: seed {seed} did not run correctly: {result}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, (info["document_sha256"], info["counts"])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--name", required=True)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    better = {m["name"]: m["better"] for m in json.loads(
        (Path(args.change) / "BENCHMARK.json").read_text())["end_to_end"]}
    pairs, identical = [], True
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        runs = {side: bench(getattr(args, side), args.workload, seed)
                for side in order}
        same = runs["parent"][1] == runs["change"][1]
        identical = identical and same
        pair = {"seed": seed, "order": f"{order[0]} first",
                "outputs_identical": same,
                **{side: runs[side][0] for side in ("parent", "change")}}
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        summary[name] = {
            "parent": spread(parent), "change": spread(change),
            "change_wins": sum(sign * (c - p) < 0
                               for p, c in zip(parent, change)),
            "pairs": len(pairs)}
        print(name, json.dumps(summary[name]))
    record = {"workload": args.workload,
              "command": "python3 bench/run.py --workload W --seed N",
              "method": "one pair per seed; parent first on odd seeds, "
                        "change first on even seeds",
              "outputs_identical": identical, "summary": summary,
              "pairs": pairs}
    print(json.dumps({"overheads": {args.name: record}}, sort_keys=True))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
