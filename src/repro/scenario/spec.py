"""Declarative scenario specifications.

A :class:`ScenarioSpec` pins down one complete simulation: which
buffer-management *scheme* runs on the switches, which *topology* the network
has, which *workloads* inject traffic, and how the *transport* is configured.
Every component is referenced by registry name plus keyword parameters, so a
scenario is fully expressible as JSON::

    {
      "name": "dumbbell-burst",
      "scheme": {"name": "occamy", "kwargs": {"alpha": 4.0}},
      "topology": {"kind": "dumbbell", "params": {"num_pairs": 4}},
      "workloads": [
        {"kind": "burst", "params": {"burst_bytes": 100000}}
      ],
      "transport": {"protocol": "dctcp", "config": {"min_rto": 0.002}},
      "duration": 0.005,
      "seed": 0
    }

The dataclass fields of each section are its schema; :mod:`repro.schema`
derives ``from_dict``, ``to_dict`` and ``is_default`` from them, the same
way for every section here and in :mod:`repro.campaign.spec`:

* **Parse.**  A document key is a field name; any other key is an error.  A
  value must have the field's annotation, strictly: ``true`` is not an
  ``int`` and ``"10"`` is not a ``float`` (an int is a float), a nested
  section is an object, a ``List`` is a JSON list.  A field with a default
  may be left out; ``null`` reads as the default of a section (``"lb":
  null``).  Errors start with the dotted key (``workloads[1].params``,
  ``engine.shards``; the root's own keys read ``scenario.seed``).
  ``from_dict`` then runs the section's ``validate()``: the value rules no
  annotation states (the fabric timeline's state machine, the engine's
  kernel lookup, the telemetry ranges).
* **Serialize.**  ``to_dict`` writes every field in declaration order, the
  omitted-when-default ones last, each value as its annotation (dict keys
  as strings; ``fabric.events`` as ``validate()`` normalized them).
* **Omit.**  A field with ``OMIT_DEFAULT`` metadata is left out of
  ``to_dict`` while it equals its default (``is_default`` for a section).
  ``fabric``, ``lb``, ``telemetry`` and ``engine`` are such sections, and
  ``fabric.events``, ``engine.shards`` and ``engine.partition`` such
  fields, so a document written before one existed keeps its bytes and its
  config hash.
* **Shorthand.**  The field with ``SHORTHAND`` metadata is what a bare
  string document sets: ``"scheme": "dt"``, ``"topology": "dumbbell"``,
  ``"lb": "flowlet"``, ``"engine": "pooled"``.

Like :class:`repro.campaign.spec.RunSpec`, a scenario has a stable
:meth:`~ScenarioSpec.config_hash` derived from the canonical JSON encoding of
its fields, so identical scenarios hash identically across processes and
sessions -- which is what lets the campaign layer cache and resume scenario
sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional

from repro.schema import OMIT_DEFAULT, SHORTHAND, Section, parse


def canonical_json(data: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass
class SchemeSpec(Section, section="scheme"):
    """A buffer-management scheme by registry name plus constructor kwargs."""

    name: str = field(metadata=SHORTHAND)
    kwargs: Dict[str, object] = field(default_factory=dict)


@dataclass
class TopologySpec(Section, section="topology"):
    """A topology by registry kind plus builder parameters."""

    kind: str = field(metadata=SHORTHAND)
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class WorkloadSpec(Section, section="workload"):
    """One traffic source: a workload registry kind plus parameters.

    Attributes:
        kind: workload factory name (``incast``, ``websearch``, ``poisson``,
            ``all_to_all``, ``all_reduce``, ``burst``, ``fixed``,
            ``packet_stream``, ``packet_burst``, ...).
        params: factory keyword parameters.
        transport: transport protocol for this workload's flows; ``None``
            falls back to the scenario's default protocol.
        rng_label: label of the derived random substream this workload draws
            from (defaults to ``kind``).  Two workloads with the same label
            share a stream seed, so give distinct labels to independent
            sources.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    transport: Optional[str] = None
    rng_label: Optional[str] = None


#: The actions a fabric-timeline event may carry.
FABRIC_EVENT_ACTIONS = ("fail", "repair", "degrade")


def normalize_fabric_event(entry: object, index: int) -> Dict[str, object]:
    """``fabric.events[index]`` in canonical form, or a loud ValueError.

    Accepts the canonical shape ``{"t": ..., "action": "fail", "link":
    [a, b]}`` and the compact shorthand where the action name carries the
    link (``{"t": ..., "fail": [a, b]}``).  ``factor`` is required for
    ``degrade`` and rejected elsewhere; unknown keys are rejected so typos
    cannot silently drop an event.  Every message starts
    ``fabric.events[index]: ``.
    """
    where = f"fabric.events[{index}]:"
    if not isinstance(entry, Mapping):
        raise ValueError(f"{where} must be an object, got {entry!r}")
    data = dict(entry)
    action = data.pop("action", None)
    link = data.pop("link", None)
    for name in FABRIC_EVENT_ACTIONS:
        if name in data:
            if action is not None:
                raise ValueError(f"{where} declares two actions: {entry!r}")
            action = name
            link = data.pop(name)
    if action not in FABRIC_EVENT_ACTIONS:
        raise ValueError(
            f"{where} needs an action of "
            f"{'/'.join(FABRIC_EVENT_ACTIONS)}, got {entry!r}")
    if not isinstance(link, (list, tuple)) or len(link) != 2:
        raise ValueError(
            f"{where} link must be an [a, b] endpoint pair, got {link!r}")
    if "t" not in data:
        raise ValueError(f"{where} has no timestamp 't': {entry!r}")
    t = parse(float, data.pop("t"), "t", f"{where} 't'")
    if t < 0:
        raise ValueError(f"{where} timestamp must be non-negative, got {t!r}")
    event: Dict[str, object] = {
        "t": t, "action": str(action), "link": [str(link[0]), str(link[1])],
    }
    if action == "degrade":
        if "factor" not in data:
            raise ValueError(f"{where} degrade needs a 'factor': {entry!r}")
        factor = parse(float, data.pop("factor"), "factor", f"{where} 'factor'")
        if not 0 < factor <= 1:
            raise ValueError(
                f"{where} degrade factor must be in (0, 1], got {factor!r}")
        event["factor"] = factor
    elif "factor" in data:
        raise ValueError(
            f"{where} 'factor' only applies to degrade events, got {entry!r}")
    if data:
        raise ValueError(f"{where} unknown keys {sorted(data)} in {entry!r}")
    return event


@dataclass
class FabricSpec(Section, section="fabric"):
    """The fabric model of a scenario: per-tier rates, failures, degradation.

    Attributes:
        tier_rates: per-tier link-rate overrides, keyed by the topology's
            tier names (e.g. ``{"core": 40e9}`` on a fat-tree; tiers are
            ``host``/``agg``/``core`` for ``fat_tree``, ``host``/``spine``
            for ``leaf_spine``, ``host``/``trunk`` for ``dumbbell``,
            ``host`` for ``single_switch``, ``port`` for ``raw_switch``).
        failures: failed links as ``[a, b]`` endpoint-name pairs (e.g.
            ``["agg0_0", "core1"]``); both directions fail and routing is
            pruned so no candidate path crosses them.
        degraded: capacity degradations as ``[a, b, factor]`` triples with
            ``factor`` in (0, 1] (``[port_id, factor]`` pairs on
            ``raw_switch``); serialization and ECMP weights scale.
        events: the *mid-run* timeline -- ``{"t": seconds, "action":
            "fail"|"repair"|"degrade", "link": [a, b], "factor":?}`` entries
            (shorthand: ``{"t": ..., "fail": [a, b]}``), executed by the
            runner through ``sim.at`` -> ``Network.fail_link`` /
            ``repair_link`` / ``degrade_link``.  Validated at build time:
            timestamps non-negative and sorted, ``repair`` only of a link
            that is failed at that point of the timeline (initial
            ``failures`` count), no double ``fail``.

    The default (all empty) is exactly the symmetric single-rate fabric.
    """

    tier_rates: Dict[str, float] = field(default_factory=dict)
    failures: List[List[object]] = field(default_factory=list)
    degraded: List[List[object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list,
                                            metadata=OMIT_DEFAULT)

    def validate(self) -> None:
        """Shape-check the declarative fields with precise messages."""
        for tier, rate in self.tier_rates.items():
            if not float(rate) > 0:
                raise ValueError(
                    f"fabric.tier_rates[{tier!r}] must be positive, "
                    f"got {rate!r}")
        for entry in self.failures:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(
                    f"fabric.failures entries must be [a, b] endpoint "
                    f"pairs, got {entry!r}")
        for entry in self.degraded:
            if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
                raise ValueError(
                    "fabric.degraded entries must be [a, b, factor] "
                    f"(or [port, factor] on raw_switch), got {entry!r}")
            factor = float(entry[-1])
            if not 0 < factor <= 1:
                raise ValueError(
                    f"fabric.degraded factor must be in (0, 1], got {factor!r}")
        self._validate_events()

    def _validate_events(self) -> None:
        """Normalize the timeline and check its sequencing invariants.

        Rewrites ``self.events`` into canonical form (so documents built
        from shorthand entries serialize and hash identically to explicit
        ones) and walks the failure state machine: the timeline must be
        sorted, a link fails only while healthy, and a repair only follows
        a failure (the initial ``failures`` count as failed at t=0).
        """
        if not self.events:
            return
        normalized = [normalize_fabric_event(entry, index)
                      for index, entry in enumerate(self.events)]
        failed = {frozenset((str(a), str(b))) for a, b in self.failures}
        last_t = 0.0
        for event in normalized:
            if event["t"] < last_t:
                raise ValueError(
                    "fabric.events must be sorted by timestamp; "
                    f"t={event['t']!r} follows t={last_t!r}")
            last_t = event["t"]
            key = frozenset(event["link"])
            if event["action"] == "fail":
                if key in failed:
                    raise ValueError(
                        f"fabric.events: link {event['link']} fails at "
                        f"t={event['t']} but is already failed")
                failed.add(key)
            elif event["action"] == "repair":
                if key not in failed:
                    raise ValueError(
                        f"fabric.events: repair of link {event['link']} at "
                        f"t={event['t']} but it is not failed at that point "
                        "(declare it in fabric.failures or fail it first)")
                failed.discard(key)
        self.events = normalized

    def topology_kwargs(self) -> Dict[str, object]:
        """The builder keyword arguments this fabric adds to a topology."""
        doc = self.to_dict()
        return {key: doc[key] for key in ("tier_rates", "failures", "degraded")
                if doc[key]}


@dataclass
class LoadBalancerSpec(Section, section="lb"):
    """The load-balancer section: an uplink-choice policy for every switch.

    Attributes:
        name: policy registry name (see :mod:`repro.lb`): ``ecmp`` (the
            default static flow hash), ``flowlet``, or any plugin
            registration.
        kwargs: policy constructor overrides (e.g. ``{"gap": 5e-05}`` for
            flowlet); registered defaults apply underneath.
    """

    name: str = field(default="ecmp", metadata=SHORTHAND)
    kwargs: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.name:
            raise ValueError("lb.name must be non-empty")


#: Default ring capacity (samples kept per telemetry series).
TELEMETRY_DEFAULT_CAPACITY = 512


@dataclass
class TelemetrySpec(Section, section="telemetry"):
    """The telemetry section of a scenario: sampling-bus configuration.

    Attributes:
        enabled: attach the sampling bus (:mod:`repro.telemetry`) to the
            run.  Off by default, with zero hot-path cost when off -- the
            bus is pull-based (it reads existing counters on its own
            sim-time ticks) and never instruments the event path.
        interval: sim-time sampling cadence in seconds.  ``None`` (the
            default cadence) spreads the ring across the run horizon
            (``duration * run_slack / (capacity - 1)``), so a default run
            never wraps.  An explicit interval that produces more ticks
            than ``capacity`` keeps the *newest* samples (ring wraparound).
        capacity: fixed ring-buffer capacity of every series.
        per_port: record per-port backlog series on every switch (the
            bulk of a fabric document); aggregate and per-switch series
            are always recorded.
    """

    enabled: bool = False
    interval: Optional[float] = None
    capacity: int = TELEMETRY_DEFAULT_CAPACITY
    per_port: bool = True

    def validate(self) -> None:
        if self.interval is not None and not float(self.interval) > 0:
            raise ValueError(
                f"telemetry.interval must be positive, got {self.interval!r}")
        if int(self.capacity) < 2:
            raise ValueError(
                f"telemetry.capacity must be >= 2, got {self.capacity!r}")


@dataclass
class EngineSpec(Section, section="engine"):
    """The engine section of a scenario: which simulation kernel runs it.

    Attributes:
        kernel: registered kernel name (see :mod:`repro.sim.kernel`):
            ``heap`` (the default) or ``pooled``, a compatibility alias
            that runs the same kernel and is echoed verbatim.  Campaign
            sweeps address it with an ``engine.kernel`` dotted axis.
        shards: number of conservative-parallel shard processes (see
            :mod:`repro.sim.shard`); ``1`` (the default) runs in-process.
            Sweepable via an ``engine.shards`` dotted axis.
        partition: fabric partitioning strategy for sharded runs (see
            :data:`repro.netsim.partition.PARTITION_STRATEGIES`):
            ``auto`` (topology-aware, the default), ``pods``, ``leaves``
            or ``contiguous``.

    A non-default engine changes the config hash: result documents are
    byte-identical across engine configurations (that is the differential
    gate), but which engine produced a stored artifact is part of its
    identity.
    """

    kernel: str = field(default="heap", metadata=SHORTHAND)
    shards: int = field(default=1, metadata=OMIT_DEFAULT)
    partition: str = field(default="auto", metadata=OMIT_DEFAULT)

    def validate(self) -> None:
        # Imported lazily: the spec layer stays importable without pulling
        # the whole sim stack in at module-import time.
        from repro.netsim.partition import PARTITION_STRATEGIES
        from repro.sim.kernel import available_kernels

        if self.kernel not in available_kernels():
            raise ValueError(
                f"unknown engine.kernel {self.kernel!r}; "
                f"available: {', '.join(available_kernels())}")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool):
            raise ValueError(
                f"engine.shards must be an integer, got {self.shards!r}")
        if self.shards < 1:
            raise ValueError(
                f"engine.shards must be >= 1, got {self.shards}")
        if self.partition not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown engine.partition {self.partition!r}; "
                f"available: {', '.join(PARTITION_STRATEGIES)}")


@dataclass
class TransportSpec(Section, section="transport"):
    """Transport configuration: default protocol + config profile/overrides.

    Attributes:
        protocol: default transport protocol name (``dctcp``, ``cubic``,
            ``reno``) for workloads that do not specify their own.
        profile: name of a registered transport-config profile (see
            :mod:`repro.scenario.transports`); ``None`` uses the built-in
            :class:`~repro.netsim.transport.base.TransportConfig` defaults.
        config: keyword overrides applied on top of the profile.
    """

    protocol: str = "dctcp"
    profile: Optional[str] = None
    config: Dict[str, object] = field(default_factory=dict)


@dataclass
class ScenarioSpec(Section, section="scenario", document=True):
    """One fully-determined scenario: scheme x topology x workloads x transport.

    Attributes:
        name: human-readable scenario name.  It participates in the config
            hash, so renaming a scenario invalidates cached campaign results
            -- rename with intent.
        scheme / topology / workloads / transport: the four composed specs.
        fabric: the link-level fabric model (per-tier rates, failed and
            degraded links); the symmetric single-rate fabric by default.
            Campaign sweeps address it with dotted axes such as
            ``fabric.tier_rates.core`` or ``fabric.failures[0]``.
        lb: the load-balancer section (see :class:`LoadBalancerSpec`);
            ``ecmp`` by default.  Campaign sweeps address it with
            ``lb.name`` / ``lb.kwargs.gap`` dotted axes.
        telemetry: the sampling-bus section (see :class:`TelemetrySpec`);
            disabled by default.
        engine: the simulation-kernel section (see :class:`EngineSpec`);
            ``heap`` by default.  Campaign sweeps address it with an
            ``engine.kernel`` dotted axis.
        duration: workload generation window in seconds; generators emit
            traffic within ``[0, duration)``.
        run_slack: the simulation runs until ``duration * run_slack`` so
            late flows can drain (packet-level scenarios typically use 1.0).
        seed: root random seed; every workload derives an independent child
            stream from it.
        alpha_overrides: per-class-index alpha overrides applied to every
            switch queue (e.g. ``{0: 8.0, 1: 1.0}`` for the strict-priority
            experiments).
    """

    name: str = field(metadata={"absent": "scenario"})
    scheme: SchemeSpec
    topology: TopologySpec
    workloads: List[WorkloadSpec] = field(default_factory=list)
    transport: TransportSpec = field(default_factory=TransportSpec)
    fabric: FabricSpec = field(default_factory=FabricSpec,
                               metadata=OMIT_DEFAULT)
    lb: LoadBalancerSpec = field(default_factory=LoadBalancerSpec,
                                 metadata=OMIT_DEFAULT)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec,
                                     metadata=OMIT_DEFAULT)
    engine: EngineSpec = field(default_factory=EngineSpec,
                               metadata=OMIT_DEFAULT)
    duration: float = 0.02
    run_slack: float = 10.0
    seed: int = 0
    alpha_overrides: Dict[int, float] = field(default_factory=dict)

    def validate(self) -> None:
        """The value rules of every section, with precise messages."""
        if not self.duration > 0:
            raise ValueError(
                f"scenario.duration must be positive, got {self.duration!r}")
        if not self.run_slack > 0:
            raise ValueError(
                f"scenario.run_slack must be positive, got {self.run_slack!r}")
        self.fabric.validate()
        self.lb.validate()
        self.telemetry.validate()
        self.engine.validate()

    def resolved_topology_params(self) -> Dict[str, object]:
        """Topology builder params with the fabric section merged in.

        The single authority for the merge (the runner and the ``validate``
        CLI both use it): declaring a fabric dimension in *both* places is
        rejected, so a document cannot silently shadow its fabric section.
        """
        params = dict(self.topology.params)
        if self.fabric.is_default():
            return params
        fabric_kwargs = self.fabric.topology_kwargs()
        overlap = sorted(set(fabric_kwargs) & set(params))
        if overlap:
            raise ValueError(
                "fabric section and topology params both set "
                f"{', '.join(overlap)}; declare them once, in 'fabric'")
        params.update(fabric_kwargs)
        return params

    def with_engine(self, kernel: Optional[str] = None,
                    shards: Optional[int] = None,
                    partition: Optional[str] = None) -> "ScenarioSpec":
        """A copy run by the given engine; ``self`` is left untouched.

        Each override replaces only its own field and ``None`` keeps the
        spec's value, so overrides compose: a shard count does not clobber
        a kernel given alongside it, or one the document set.
        """
        overrides = {name: value for name, value in (
            ("kernel", kernel), ("shards", shards), ("partition", partition))
            if value is not None}
        return replace(self, engine=replace(self.engine, **overrides))

    def config_hash(self) -> str:
        """A 16-hex-digit digest stable across processes and sessions."""
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]

    def label(self) -> str:
        """Compact identity for progress lines and logs."""
        return (f"{self.name} [{self.scheme.name} x {self.topology.kind} x "
                f"{'+'.join(w.kind for w in self.workloads)} seed={self.seed}]")
