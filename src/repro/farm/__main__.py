"""``python -m repro.farm``: the worker entry point and farm health checks.

Subcommands:

* ``worker`` -- answer JSON request lines from stdin, one response line
  each, until EOF (the remote end of every subprocess / ssh-hosts slot);
* ``check FARMSPEC`` -- ping every slot of a farm and report reachability,
  e.g. ``python -m repro.farm check ssh-hosts:hosts.json``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.farm.farm import make_farm
from repro.farm.protocol import worker_main


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.farm",
        description="Farm worker entry point and health checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "worker",
        help="answer JSON request lines from stdin until EOF")

    check = sub.add_parser("check", help="ping every slot of a farm")
    check.add_argument(
        "farm", help="farm spec: local, subprocess[:N] or ssh-hosts:HOSTS.json")

    args = parser.parse_args(argv)

    if args.command == "worker":
        return worker_main()

    farm = make_farm(args.farm)
    print(f"farm: {farm.describe()}")
    failures = 0
    for name, reachable, detail in farm.check():
        status = "ok" if reachable else "UNREACHABLE"
        print(f"  {name:<24} {status:<12} {detail}")
        failures += 0 if reachable else 1
    if failures:
        print(f"{failures}/{len(farm.slots)} slots unreachable")
        return 1
    print(f"all {len(farm.slots)} slots reachable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
