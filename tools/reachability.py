#!/usr/bin/env python3
"""List the functions under ``src/repro`` that no entry point of the repo enters.

    python3 tools/reachability.py          # ~30 min on a 2-core machine

Runs every ``examples/*.py`` and :data:`RUNS` (``pytest tests benchmarks``,
the four bench sessions at tiny scale, the CI command-line steps and every
CLI's ``--help``), each as a ``python -m cProfile -o`` subprocess, and diffs the
profiled code against an ``ast`` walk of every ``def`` under ``src/repro``.
Declaration stubs (only a docstring, ``...`` or ``raise NotImplementedError``)
and :data:`ALLOW` are not reported.  Prints the unreached defs by module with
line counts; exits 1 if any remain.  Stdlib only.  Blind spots: the traced
test of ``bench/test_bench_smoke.py`` replaces an outer profiler (so the bench
code runs through its sessions, never under pytest), and cProfile sees one
thread of one process (so :data:`ALLOW` names the worker entry points).
For the test-free census -- the defs that only their own tests enter --
swap the ``-m pytest ...`` line of :data:`RUNS` for ``-m
repro.experiments.runner all --scale bench`` and run it again.
"""

import ast
import os
import pstats
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
STUBS = ("...", "raise NotImplementedError", "raise NotImplementedError()")

#: ``module:qualname`` patterns run out of process or in a thread (one line
#: each, at most ten).
ALLOW = [
    r"^repro\.sim\.shard:(_ShardWorker|_CutRecorder|_leak_guard)",  # shard process
    r"^repro\.netsim\.network:Network\.transport_config$",  # read by shard processes only
    r"^repro\.process:_serve_forked$",  # forked worker
]

#: One ``python -m cProfile -o OUT <line>`` each, after every examples/*.py and
#: before each ``python -m <package> --help``; ``--json`` output goes to doc.json.
RUNS = """-m pytest -q -p no:cacheprovider tests benchmarks
bench/session.py --workload fabric_websearch --seed 1 --scale tiny --reps 1
bench/session.py --workload switch_burst --seed 1 --scale tiny --reps 1
bench/session.py --workload fabric_features --seed 1 --scale tiny --reps 1
bench/session.py --workload campaign_farm --seed 1 --scale tiny --reps 1
-m repro.scenario registries
-m repro.scenario validate {specs}
-m repro.scenario run examples/scenario_telemetry_incast.json --json
-m repro.analysis qlen {tmp}/doc.json --series switch.*.occupancy_bytes sim.*
-m repro.farm check subprocess:2
-m repro.campaign run examples/campaign_farm_smoke.json --farm subprocess:2 --store {tmp}/farm
-m repro.analysis summary {tmp}/farm
-m repro.analysis fct {tmp}/farm
-m repro.analysis compare {tmp}/farm --format csv --metric avg_fct_slowdown --baseline dt
-m repro.analysis qlen {tmp}/farm
-m repro.perf differential --shards 2
-m repro.perf overhead websearch_leaf_spine websearch_leaf_spine_telemetry --reps 1
-m repro.experiments.runner --help"""


def defs():
    """{(path, first line as in co_firstlineno): ("module:qualname", lines)}."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                walk(child, path, prefix + child.name + ".")
            if not isinstance(child, ast.FunctionDef):
                continue
            body = child.body[1:] if ast.get_docstring(child) else child.body
            if body and not (len(body) == 1 and ast.unparse(body[0]) in STUBS):
                first = min(d.lineno for d in [*child.decorator_list, child])
                found[(str(path), first)] = (prefix + child.name, child.end_lineno - first + 1)
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        walk(ast.parse(path.read_text()), path, module + ":")
    return found


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reached = set()
    with tempfile.TemporaryDirectory() as tmp:
        examples = sorted(str(p) for p in (ROOT / "examples").glob("*.py"))
        specs = " ".join(sorted(str(p) for pattern in (
            "examples/*.json", "src/repro/perf/cases/*.json") for p in ROOT.glob(pattern)))
        helps = [f"-m repro.{p.parent.name} --help" for p in SRC.glob("*/__main__.py")]
        lines = examples + RUNS.format(specs=specs, tmp=tmp).splitlines() + helps
        for index, argv in enumerate(line.split() for line in lines):
            out = Path(tmp) / f"{index}.prof"
            stdout = f"{tmp}/doc.json" if argv[-1] == "--json" else os.devnull
            with open(stdout, "w") as sink:
                done = subprocess.run(
                    [sys.executable, "-m", "cProfile", "-o", str(out), *argv],
                    cwd=ROOT, env=env, stdout=sink, stderr=subprocess.DEVNULL)
            print(f"[exit {done.returncode}] {' '.join(argv)[:80]}", file=sys.stderr, flush=True)
            if out.exists():
                for filename, line, _ in pstats.Stats(str(out)).stats:
                    reached.add((os.path.realpath(ROOT / filename), line))
    allow = re.compile("|".join(ALLOW))
    unreached = {}
    for key, (name, lines) in defs().items():
        if key not in reached and not allow.search(name):
            module, name = name.split(":")
            unreached.setdefault(module, []).append((key[1], name, lines))
    for module, items in sorted(unreached.items()):
        print(f"{module}  ({len(items)} defs, {sum(i[2] for i in items)} lines)")
        for line, name, lines in items:
            print(f"  {line:5d}  {name}  ({lines} lines)")
    total = sum(map(len, unreached.values()))
    print(f"{total} unreached def(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
