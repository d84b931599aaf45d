"""ANSI terminal dashboards for live scenario and campaign runs.

Two boards live here, both in the spirit of the FM16 simulator's status
board: repaint-in-place when the stream is a TTY, degrade to plain
append-only progress lines otherwise (pipes, CI logs).

* :class:`LiveDashboard` plugs into ``TelemetryBus.on_sample`` and renders
  clock progress, events/sec, fabric buffer occupancy (current and peak),
  the top-N hottest ports and the admit/drop totals while a scenario runs
  (``python -m repro.scenario run --live``).
* :class:`ShardDashboard` plugs into the sharded executor's round loop
  (``python -m repro.scenario run --live --shards N``): worker-process
  telemetry buses are unobservable from the parent, so it renders the
  per-round :class:`~repro.sim.shard.ShardRound` snapshots instead --
  global clock progress plus one row per shard (local time, events,
  handoffs).
* :class:`CampaignBoard` is a campaign progress callback
  (``python -m repro.campaign run --live``) rendering one row per
  experiment with done/ok/failed/cached counts and throughput.

Rendering is throttled on wall-clock time so a microsecond sampling
cadence cannot flood the terminal.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Sequence, TextIO

_HIDE_CURSOR = "\x1b[?25l"
_SHOW_CURSOR = "\x1b[?25h"
_CLEAR_LINE = "\x1b[2K"


def _cursor_up(lines: int) -> str:
    return f"\x1b[{lines}F" if lines else ""


def _fmt_bytes(nbytes: float) -> str:
    if nbytes >= 1e6:
        return f"{nbytes / 1e6:.1f}MB"
    if nbytes >= 1e3:
        return f"{nbytes / 1e3:.1f}KB"
    return f"{int(nbytes)}B"


def _fmt_rate(per_sec: float) -> str:
    if per_sec >= 1e6:
        return f"{per_sec / 1e6:.2f}M"
    if per_sec >= 1e3:
        return f"{per_sec / 1e3:.1f}k"
    return f"{per_sec:.0f}"


class _Board:
    """Shared repaint-in-place / append-only plumbing of both boards."""

    def __init__(self, stream: Optional[TextIO] = None,
                 use_ansi: Optional[bool] = None,
                 min_refresh_s: float = 0.2) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if use_ansi is None:
            use_ansi = bool(getattr(self.stream, "isatty", lambda: False)())
        self.use_ansi = use_ansi
        self.min_refresh_s = min_refresh_s
        self._painted_lines = 0
        self._last_paint = 0.0

    def _due(self) -> bool:
        return time.perf_counter() - self._last_paint >= self.min_refresh_s

    def _paint(self, lines: Sequence[str]) -> None:
        self._last_paint = time.perf_counter()
        out = self.stream
        if self.use_ansi:
            out.write(_HIDE_CURSOR + _cursor_up(self._painted_lines))
            for line in lines:
                out.write(_CLEAR_LINE + line + "\n")
            out.write(_SHOW_CURSOR)
            self._painted_lines = len(lines)
        else:
            # Non-TTY fallback: one compact line per refresh.
            out.write(" | ".join(line.strip() for line in lines if line.strip())
                      + "\n")
        out.flush()


class LiveDashboard(_Board):
    """A ``TelemetryBus.on_sample`` hook rendering a live scenario board."""

    def __init__(self, label: str, stream: Optional[TextIO] = None,
                 use_ansi: Optional[bool] = None,
                 min_refresh_s: float = 0.2, top_ports: int = 4) -> None:
        super().__init__(stream=stream, use_ansi=use_ansi,
                         min_refresh_s=min_refresh_s)
        self.label = label
        self.top_ports = top_ports
        self._rate_wall = None  # type: Optional[float]
        self._rate_events = 0
        self._events_per_sec = 0.0

    def __call__(self, bus) -> None:
        wall = time.perf_counter()
        events = bus.events_now()
        if self._rate_wall is not None and wall > self._rate_wall:
            self._events_per_sec = ((events - self._rate_events)
                                    / (wall - self._rate_wall))
        self._rate_wall, self._rate_events = wall, events
        if self._due():
            self._paint(self._lines(bus))

    def finish(self, bus) -> None:
        """Paint the final state (always) and leave the board on screen."""
        self._paint(self._lines(bus, final=True))

    def _lines(self, bus, final: bool = False) -> List[str]:
        clock_ms = bus.clock * 1e3
        horizon_ms = bus.horizon * 1e3
        fraction = min(1.0, bus.clock / bus.horizon) if bus.horizon else 1.0
        bar_cells = 24
        filled = int(round(fraction * bar_cells))
        bar = "#" * filled + "-" * (bar_cells - filled)
        state = "done" if final else "live"
        totals = bus.totals()
        lines = [
            f"[{state}] {self.label}",
            (f"  clock   {clock_ms:9.3f} / {horizon_ms:.3f} ms "
             f"[{bar}] {fraction * 100:5.1f}%"),
            (f"  events  {bus.events_now():,} executed   "
             f"{_fmt_rate(self._events_per_sec)} ev/s   "
             f"samples {bus.ticks}"),
            (f"  buffer  {_fmt_bytes(bus.total_occupancy_bytes())} now   "
             f"{_fmt_bytes(bus.peak_occupancy_bytes())} peak"),
            (f"  packets admitted {totals['admitted']:,}   "
             f"dropped {totals['dropped']:,}   "
             f"expelled {totals['expelled']:,}"),
        ]
        hottest = bus.hottest_ports(self.top_ports)
        if hottest:
            lines.append("  ports   " + "  ".join(
                f"{name} {_fmt_bytes(backlog)}" for name, backlog in hottest))
        return lines


class ShardDashboard(_Board):
    """A sharded-run round hook rendering per-shard live progress.

    The ``shard_aware`` flag tells :func:`repro.sim.shard.run_sharded` to
    feed this object a :class:`~repro.sim.shard.ShardRound` after every
    conservative exchange (plain telemetry hooks are ignored there -- the
    buses live in the worker processes).
    """

    shard_aware = True

    def __init__(self, label: str, stream: Optional[TextIO] = None,
                 use_ansi: Optional[bool] = None,
                 min_refresh_s: float = 0.2) -> None:
        super().__init__(stream=stream, use_ansi=use_ansi,
                         min_refresh_s=min_refresh_s)
        self.label = label
        self._rate_wall = None  # type: Optional[float]
        self._rate_events = 0
        self._events_per_sec = 0.0
        self._last_round = None

    def __call__(self, snapshot) -> None:
        self._last_round = snapshot
        wall = time.perf_counter()
        events = sum(row["events"] for row in snapshot.shards)
        if self._rate_wall is not None and wall > self._rate_wall:
            self._events_per_sec = ((events - self._rate_events)
                                    / (wall - self._rate_wall))
        self._rate_wall, self._rate_events = wall, events
        if self._due():
            self._paint(self._lines())

    def finish(self, telemetry=None) -> None:
        """Paint the final state (always) and leave the board on screen.

        The merged telemetry document is accepted for interface parity with
        :meth:`LiveDashboard.finish` but carries no live state to render.
        """
        del telemetry
        if self._last_round is not None:
            self._paint(self._lines(final=True))

    def _lines(self, final: bool = False) -> List[str]:
        snap = self._last_round
        clock = min(snap.horizon, snap.final_horizon)
        fraction = (min(1.0, clock / snap.final_horizon)
                    if snap.final_horizon else 1.0)
        if final:
            fraction = 1.0
        bar_cells = 24
        filled = int(round(fraction * bar_cells))
        bar = "#" * filled + "-" * (bar_cells - filled)
        state = "done" if final else "live"
        total_events = sum(row["events"] for row in snap.shards)
        total_handoffs = sum(row["handoffs"] for row in snap.shards)
        lines = [
            f"[{state}] {self.label}  ({len(snap.shards)} shards)",
            (f"  clock   {clock * 1e3:9.3f} / {snap.final_horizon * 1e3:.3f} ms "
             f"[{bar}] {fraction * 100:5.1f}%"),
            (f"  rounds  {snap.round:,}   events {total_events:,}   "
             f"{_fmt_rate(self._events_per_sec)} ev/s   "
             f"handoffs {total_handoffs:,}"),
        ]
        for row in snap.shards:
            lines.append(
                f"  shard {row['shard']}  t={row['now'] * 1e3:9.3f}ms  "
                f"events {row['events']:,}  handoffs {row['handoffs']:,}")
        return lines


class CampaignBoard(_Board):
    """A campaign progress callback with one live row per experiment."""

    def __init__(self, runs: Sequence, stream: Optional[TextIO] = None,
                 use_ansi: Optional[bool] = None,
                 min_refresh_s: float = 0.2) -> None:
        super().__init__(stream=stream, use_ansi=use_ansi,
                         min_refresh_s=min_refresh_s)
        #: Per-experiment totals, in first-seen run order.
        self._total: Dict[str, int] = {}
        for spec in runs:
            self._total[spec.experiment] = self._total.get(spec.experiment, 0) + 1
        self._done: Dict[str, int] = {name: 0 for name in self._total}
        self._failed: Dict[str, int] = {name: 0 for name in self._total}
        self._cached: Dict[str, int] = {name: 0 for name in self._total}
        self._elapsed: Dict[str, float] = {name: 0.0 for name in self._total}
        self._completed = 0
        self._overall_total = len(runs)
        self._start = time.perf_counter()
        #: Farm worker health rows (set via :meth:`update_workers`).
        self._workers: List[Dict[str, object]] = []

    def update_workers(self, rows: Sequence[Dict[str, object]]) -> None:
        """Record farm worker health; the next progress callback repaints."""
        self._workers = [dict(row) for row in rows]

    def __call__(self, completed: int, total: int, outcome) -> None:
        name = outcome.spec.experiment
        self._overall_total = total
        self._completed = completed
        self._done[name] = self._done.get(name, 0) + 1
        self._total.setdefault(name, 0)
        if outcome.status == "cached":
            self._cached[name] = self._cached.get(name, 0) + 1
        elif not outcome.ok:
            self._failed[name] = self._failed.get(name, 0) + 1
        self._elapsed[name] = self._elapsed.get(name, 0.0) + outcome.elapsed
        if self._due() or completed >= total:
            self._paint(self._lines())

    def finish(self) -> None:
        self._paint(self._lines())

    def _lines(self) -> List[str]:
        wall = max(1e-9, time.perf_counter() - self._start)
        rate = self._completed / wall
        remaining = self._overall_total - self._completed
        eta = remaining / rate if rate > 0 else 0.0
        lines = [
            (f"[campaign] {self._completed}/{self._overall_total} runs   "
             f"{rate:.2f} runs/s   eta {eta:4.0f}s"),
        ]
        width = max((len(name) for name in self._total), default=0)
        for name, total in self._total.items():
            done = self._done.get(name, 0)
            failed = self._failed.get(name, 0)
            cached = self._cached.get(name, 0)
            ok = done - failed
            avg = self._elapsed.get(name, 0.0) / done if done else 0.0
            row = (f"  {name.ljust(width)}  {done:>3}/{total:<3}  "
                   f"ok {ok:<3} failed {failed:<3} cached {cached:<3} "
                   f"avg {avg:6.2f}s")
            lines.append(row)
        if self._workers:
            worker_width = max(len(str(row.get("worker", "")))
                               for row in self._workers)
            for row in self._workers:
                lines.append(
                    f"  [{str(row.get('worker', '')).ljust(worker_width)}] "
                    f"ok {row.get('ok', 0):<3} failed {row.get('failed', 0):<3} "
                    f"lost {row.get('lost', 0):<2} "
                    f"{row.get('state', 'idle')}")
        return lines
