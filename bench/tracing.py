"""Benchmark-side tracing: phase spans, hook points, dispatch attribution.

Nothing here edits ``src/``.  Spans are recorded from the benchmark's own
files: around the public calls the workloads make, and -- for the phases
that happen *inside* ``ScenarioRunner.run`` -- through wrappers bound over
the callables at each layer boundary for the duration of one traced
repetition (:data:`SPAN_HOOKS`).  Hook points are looked up by dotted path
at install time; one that no longer resolves (a later PR renamed or
deleted it) is reported in ``Tracer.unresolved`` with a warning and its
metrics become ``null`` -- never a failed run.  End-to-end numbers are
always taken with a :class:`NullTracer`, i.e. with none of this active.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, "module:attribute.path") -- the layer boundaries inside the
#: program.  Several targets may feed one span name (the two dispatch
#: entry points, the two drive methods).
SPAN_HOOKS: Tuple[Tuple[str, str], ...] = (
    ("scenario.validate", "repro.scenario.runner:ScenarioRunner.validate"),
    ("topology.build", "repro.scenario.runner:make_topology"),
    ("workloads.generate", "repro.scenario.runner:make_workload"),
    ("netsim.inject",
     "repro.scenario.runner:ScenarioRunner._run_network_level"),
    ("netsim.inject",
     "repro.scenario.runner:ScenarioRunner._run_packet_level"),
    ("sim.dispatch", "repro.sim.engine:Simulator.run"),
    ("sim.dispatch", "repro.sim.engine:Simulator._run_counting"),
    ("campaign.sim", "repro.campaign.executor:execute_run"),
    ("store.save", "repro.campaign.store:ResultStore.save"),
    ("store.load", "repro.campaign.store:ResultStore.load"),
)

#: The dispatch entry points the cProfile pass brackets.
DISPATCH_HOOKS = tuple(target for name, target in SPAN_HOOKS
                       if name == "sim.dispatch")

#: Dispatch-attribution buckets: bucket name -> path prefixes below
#: ``repro/`` (first match wins; anything else, builtins included, is
#: ``other``).  Layer = module name.
BUCKETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.kernel", ("sim/kernel.py",)),
    ("sim.engine", ("sim/engine.py",)),
    ("sim.events", ("sim/events.py",)),
    ("netsim.link", ("netsim/link.py",)),
    ("netsim.host", ("netsim/host.py",)),
    ("netsim.transport", ("netsim/transport/",)),
    ("netsim.switch_node", ("netsim/switch_node.py",)),
    ("netsim.routing", ("netsim/routing.py",)),
    ("switchsim", ("switchsim/",)),
    ("core", ("core/",)),
    ("lb", ("lb/",)),
    ("telemetry", ("telemetry/",)),
    ("scenario.timeline", ("scenario/timeline.py",)),
    ("metrics", ("metrics/",)),
)
BUCKET_NAMES = tuple(name for name, _ in BUCKETS) + ("other",)


def warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr, flush=True)


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``"pkg.mod:A.b"`` -> ``(owner, "b", callable)``; raises LookupError."""
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        func = getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise LookupError(
            f"hook point {target} does not resolve: {exc}") from exc
    if not callable(func):
        raise LookupError(f"hook point {target} is not callable")
    return owner, leaf, func


class Hooks:
    """Wrappers bound over hook points, restored by :meth:`remove`."""

    def __init__(self) -> None:
        self._bound: List[Tuple[object, str, Callable]] = []

    def bind(self, target: str,
             wrap: Callable[[Callable], Callable]) -> bool:
        """Replace ``target`` by ``wrap(target)``; False (and a warning)
        when the hook point no longer resolves."""
        try:
            owner, leaf, func = resolve(target)
        except LookupError as exc:
            warn(str(exc))
            return False
        setattr(owner, leaf, wrap(func))
        self._bound.append((owner, leaf, func))
        return True

    def remove(self) -> None:
        while self._bound:
            owner, leaf, func = self._bound.pop()
            setattr(owner, leaf, func)


class NullTracer:
    """Tracing off: every span is the shared no-op context manager."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, run: Optional[str] = None):
        return self._null


class Tracer:
    """In-memory span recorder (written out by the caller at exit).

    A span is ``{"name", "start", "end", "parent", "run"}``: ``parent`` is
    the index of the span that was open when this one started (``None``
    for a root), ``run`` the identifier shared by every span of one
    scenario / campaign run.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.unresolved: List[str] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._hooks = Hooks()

    @contextmanager
    def span(self, name: str, run: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if run is None and parent is not None:
            run = self.spans[parent]["run"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": run}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    # -- hook points ---------------------------------------------------
    def install(self) -> None:
        """Bind a span wrapper over every :data:`SPAN_HOOKS` target.

        A span name is unresolved only when *none* of its targets exists
        (``sim.dispatch`` survives the deletion of either entry point).
        """
        resolved = {name for name, target in SPAN_HOOKS
                    if self._hooks.bind(
                        target, functools.partial(self._wrap, name))}
        self.unresolved = sorted({name for name, _ in SPAN_HOOKS} - resolved)

    def uninstall(self) -> None:
        self._hooks.remove()

    def _wrap(self, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            # Counts at the same boundary: flows (or packet arrivals)
            # generated, events the dispatch loop reports having executed.
            if name == "workloads.generate":
                self.counts[name] = self.counts.get(name, 0) + len(result)
            elif name == "sim.dispatch" and isinstance(result, int):
                self.counts[name] = self.counts.get(name, 0) + result
            return result
        return wrapper

    # -- reading the tree ----------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus what child spans cover."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own, strict=True):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals

    def durations(self) -> Dict[str, float]:
        """Per span name: total duration, children included."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = (totals.get(span["name"], 0.0)
                                    + span["end"] - span["start"])
        return totals

    def orphans(self) -> List[int]:
        """Indices of spans whose parent is missing or does not enclose them."""
        bad = []
        for index, span in enumerate(self.spans):
            parent = span["parent"]
            if parent is None:
                continue
            if not 0 <= parent < index:
                bad.append(index)
                continue
            outer = self.spans[parent]
            if not (outer["start"] <= span["start"]
                    and span["end"] <= outer["end"]):
                bad.append(index)
        return bad


class DispatchProfile:
    """One cProfile pass around the dispatch loop, bucketed by module.

    ``tottime`` and call counts of everything that runs between entering
    and leaving ``Simulator.run`` are attributed to the source module of
    the code object.  cProfile taxes Python-level calls and not the work
    inside builtins, so the shares are a guide to where to look, not a
    timing; the call counts, however, repeat exactly.
    """

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.resolved = False
        self._hooks = Hooks()

    def install(self) -> None:
        for target in DISPATCH_HOOKS:
            if self._hooks.bind(target, self._wrap):
                self.resolved = True

    def uninstall(self) -> None:
        self._hooks.remove()

    def _wrap(self, func: Callable) -> Callable:
        profiler = self.profiler

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            profiler.enable()
            try:
                return func(*args, **kwargs)
            finally:
                profiler.disable()
        return wrapper

    def buckets(self) -> Dict[str, Dict[str, float]]:
        """``{bucket: {"calls": n, "self_s": seconds}}`` for every bucket."""
        table = {name: {"calls": 0, "self_s": 0.0} for name in BUCKET_NAMES}
        for entry in self.profiler.getstats():
            row = table[bucket_of(entry.code)]
            row["calls"] += entry.callcount
            row["self_s"] += entry.inlinetime
        return table


def bucket_of(code: object) -> str:
    """The attribution bucket of a profiler entry's code object."""
    filename = getattr(code, "co_filename", None)
    if not filename:
        return "other"  # a builtin (cProfile reports those as strings)
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "other"
    relative = path[marker + len("/repro/"):]
    for name, prefixes in BUCKETS:
        if relative.startswith(prefixes):
            return name
    return "other"
