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

Like :class:`repro.campaign.spec.RunSpec`, a scenario has a stable
:meth:`~ScenarioSpec.config_hash` derived from the canonical JSON encoding of
its fields, so identical scenarios hash identically across processes and
sessions -- which is what lets the campaign layer cache and resume scenario
sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union


def canonical_json(data: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass
class SchemeSpec:
    """A buffer-management scheme by registry name plus constructor kwargs."""

    name: str
    kwargs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, object]]) -> "SchemeSpec":
        if isinstance(data, str):  # shorthand: "occamy"
            return cls(name=data)
        return cls(name=str(data["name"]), kwargs=dict(data.get("kwargs", {})))


@dataclass
class TopologySpec:
    """A topology by registry kind plus builder parameters."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, object]]) -> "TopologySpec":
        if isinstance(data, str):
            return cls(kind=data)
        return cls(kind=str(data["kind"]), params=dict(data.get("params", {})))


@dataclass
class WorkloadSpec:
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "transport": self.transport,
            "rng_label": self.rng_label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadSpec":
        return cls(
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
            transport=(None if data.get("transport") is None
                       else str(data["transport"])),
            rng_label=(None if data.get("rng_label") is None
                       else str(data["rng_label"])),
        )


#: The actions a fabric-timeline event may carry.
FABRIC_EVENT_ACTIONS = ("fail", "repair", "degrade")


def normalize_fabric_event(entry: object) -> Dict[str, object]:
    """One ``fabric.events`` entry in canonical form, or a loud ValueError.

    Accepts the canonical shape ``{"t": ..., "action": "fail", "link":
    [a, b]}`` and the compact shorthand where the action name carries the
    link (``{"t": ..., "fail": [a, b]}``).  ``factor`` is required for
    ``degrade`` and rejected elsewhere; unknown keys are rejected so typos
    cannot silently drop an event.
    """
    if not isinstance(entry, Mapping):
        raise ValueError(
            f"fabric.events entries must be objects, got {entry!r}")
    data = dict(entry)
    action = data.pop("action", None)
    link = data.pop("link", None)
    for name in FABRIC_EVENT_ACTIONS:
        if name in data:
            if action is not None:
                raise ValueError(
                    f"fabric.events entry declares two actions: {entry!r}")
            action = name
            link = data.pop(name)
    if action not in FABRIC_EVENT_ACTIONS:
        raise ValueError(
            "fabric.events entries need an action of "
            f"{'/'.join(FABRIC_EVENT_ACTIONS)}, got {entry!r}")
    if not isinstance(link, (list, tuple)) or len(link) != 2:
        raise ValueError(
            f"fabric.events link must be an [a, b] endpoint pair, "
            f"got {link!r}")
    if "t" not in data:
        raise ValueError(f"fabric.events entry has no timestamp 't': {entry!r}")
    t = float(data.pop("t"))
    if t < 0:
        raise ValueError(
            f"fabric.events timestamps must be non-negative, got {t!r}")
    event: Dict[str, object] = {
        "t": t, "action": str(action), "link": [str(link[0]), str(link[1])],
    }
    factor = data.pop("factor", None)
    if action == "degrade":
        if factor is None:
            raise ValueError(
                f"fabric.events degrade entries need a 'factor': {entry!r}")
        factor = float(factor)
        if not 0 < factor <= 1:
            raise ValueError(
                f"fabric.events degrade factor must be in (0, 1], "
                f"got {factor!r}")
        event["factor"] = factor
    elif factor is not None:
        raise ValueError(
            f"'factor' only applies to degrade events, got {entry!r}")
    if data:
        raise ValueError(
            f"unknown fabric.events keys {sorted(data)} in {entry!r}")
    return event


@dataclass
class FabricSpec:
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

    The default (all empty) is exactly the symmetric single-rate fabric, and
    a default fabric is *omitted* from :meth:`ScenarioSpec.to_dict`, so
    pre-fabric scenario documents, config hashes and goldens are unchanged.
    ``events`` participates in the canonical document (and hash) only when
    non-empty, preserving every pre-timeline fabric hash too.
    """

    tier_rates: Dict[str, float] = field(default_factory=dict)
    failures: List[List[object]] = field(default_factory=list)
    degraded: List[List[object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)

    def is_default(self) -> bool:
        return not (self.tier_rates or self.failures or self.degraded
                    or self.events)

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
        normalized = [normalize_fabric_event(entry) for entry in self.events]
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
        kwargs: Dict[str, object] = {}
        if self.tier_rates:
            kwargs["tier_rates"] = {k: float(v)
                                    for k, v in self.tier_rates.items()}
        if self.failures:
            kwargs["failures"] = [list(entry) for entry in self.failures]
        if self.degraded:
            kwargs["degraded"] = [list(entry) for entry in self.degraded]
        return kwargs

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "tier_rates": {str(k): float(v)
                           for k, v in sorted(self.tier_rates.items())},
            "failures": [list(entry) for entry in self.failures],
            "degraded": [list(entry) for entry in self.degraded],
        }
        # An empty timeline is omitted so pre-timeline fabric documents
        # (and their config hashes) are byte-identical.
        if self.events:
            doc["events"] = [normalize_fabric_event(e) for e in self.events]
        return doc

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, object]]) -> "FabricSpec":
        if data is None:
            return cls()
        spec = cls(
            tier_rates={str(k): float(v)
                        for k, v in dict(data.get("tier_rates", {})).items()},
            failures=[list(entry) for entry in data.get("failures", [])],
            degraded=[list(entry) for entry in data.get("degraded", [])],
            events=[dict(entry) if isinstance(entry, Mapping) else entry
                    for entry in data.get("events", [])],
        )
        spec.validate()
        return spec


@dataclass
class LoadBalancerSpec:
    """The load-balancer section: an uplink-choice policy for every switch.

    Attributes:
        name: policy registry name (see :mod:`repro.lb`): ``ecmp`` (the
            default static flow hash), ``flowlet``, ``drill``, ``spray``,
            or any plugin registration.
        kwargs: policy constructor overrides (e.g. ``{"gap": 5e-05}`` for
            flowlet, ``{"d": 3}`` for drill); registered defaults apply
            underneath.

    The default (``ecmp`` with no kwargs) is *omitted* from
    :meth:`ScenarioSpec.to_dict` -- the same backward-compat trick as
    :class:`FabricSpec` -- so an explicit ``"lb": {"name": "ecmp"}`` and an
    omitted section produce byte-identical canonical documents and config
    hashes, both equal to the pre-LB ones.
    """

    name: str = "ecmp"
    kwargs: Dict[str, object] = field(default_factory=dict)

    def is_default(self) -> bool:
        return self.name == "ecmp" and not self.kwargs

    def validate(self) -> None:
        if not self.name:
            raise ValueError("lb.name must be non-empty")

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(
            cls,
            data: Union[None, str, Mapping[str, object]],
    ) -> "LoadBalancerSpec":
        if data is None:
            return cls()
        if isinstance(data, str):  # shorthand: "flowlet"
            return cls(name=data)
        spec = cls(name=str(data.get("name", "ecmp")),
                   kwargs=dict(data.get("kwargs", {})))
        spec.validate()
        return spec


#: Default ring capacity (samples kept per telemetry series).
TELEMETRY_DEFAULT_CAPACITY = 512


@dataclass
class TelemetrySpec:
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

    The default (disabled) section is *omitted* from
    :meth:`ScenarioSpec.to_dict`, the same backward-compat trick as
    :class:`FabricSpec`: pre-telemetry documents, config hashes and
    campaign caches are unchanged.
    """

    enabled: bool = False
    interval: Optional[float] = None
    capacity: int = TELEMETRY_DEFAULT_CAPACITY
    per_port: bool = True

    def is_default(self) -> bool:
        return (not self.enabled and self.interval is None
                and self.capacity == TELEMETRY_DEFAULT_CAPACITY
                and self.per_port)

    def validate(self) -> None:
        if self.interval is not None and not float(self.interval) > 0:
            raise ValueError(
                f"telemetry.interval must be positive, got {self.interval!r}")
        if int(self.capacity) < 2:
            raise ValueError(
                f"telemetry.capacity must be >= 2, got {self.capacity!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": bool(self.enabled),
            "interval": (None if self.interval is None
                         else float(self.interval)),
            "capacity": int(self.capacity),
            "per_port": bool(self.per_port),
        }

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, object]]) -> "TelemetrySpec":
        if data is None:
            return cls()
        spec = cls(
            enabled=bool(data.get("enabled", False)),
            interval=(None if data.get("interval") is None
                      else float(data["interval"])),
            capacity=int(data.get("capacity", TELEMETRY_DEFAULT_CAPACITY)),
            per_port=bool(data.get("per_port", True)),
        )
        spec.validate()
        return spec


@dataclass
class EngineSpec:
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

    The default (``heap`` / 1 shard / ``auto``) is *omitted* from
    :meth:`ScenarioSpec.to_dict` -- the same backward-compat trick as
    :class:`FabricSpec` / :class:`LoadBalancerSpec` /
    :class:`TelemetrySpec` -- and the ``shards`` / ``partition`` keys are
    individually omitted when default, so an explicit
    ``"engine": {"kernel": "pooled"}`` keeps its pre-sharding canonical
    document and config hash.  A non-default engine *does* change the
    hash: result documents are expected to be byte-identical across
    engine configurations (that is the differential gate), but which
    engine produced a stored artifact is part of its identity.
    """

    kernel: str = "heap"
    shards: int = 1
    partition: str = "auto"

    def is_default(self) -> bool:
        return (self.kernel == "heap" and self.shards == 1
                and self.partition == "auto")

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

    def to_dict(self) -> Dict[str, object]:
        # shards/partition only appear when non-default, so pre-sharding
        # engine documents (and their config hashes) are byte-stable.
        doc: Dict[str, object] = {"kernel": self.kernel}
        if self.shards != 1:
            doc["shards"] = self.shards
        if self.partition != "auto":
            doc["partition"] = self.partition
        return doc

    @classmethod
    def from_dict(
            cls,
            data: Union[None, str, Mapping[str, object]],
    ) -> "EngineSpec":
        if data is None:
            return cls()
        if isinstance(data, str):  # shorthand: "pooled"
            return cls(kernel=data)
        return cls(
            kernel=str(data.get("kernel", "heap")),
            shards=int(data.get("shards", 1)),
            partition=str(data.get("partition", "auto")),
        )


@dataclass
class TransportSpec:
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "profile": self.profile,
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TransportSpec":
        return cls(
            protocol=str(data.get("protocol", "dctcp")),
            profile=(None if data.get("profile") is None
                     else str(data["profile"])),
            config=dict(data.get("config", {})),
        )


@dataclass
class ScenarioSpec:
    """One fully-determined scenario: scheme x topology x workloads x transport.

    Attributes:
        name: human-readable scenario name.  It participates in the config
            hash, so renaming a scenario invalidates cached campaign results
            -- rename with intent.
        scheme / topology / workloads / transport: the four composed specs.
        fabric: the link-level fabric model (per-tier rates, failed and
            degraded links); the default is the symmetric single-rate
            fabric and is omitted from the canonical document, so existing
            hashes are stable.  Campaign sweeps address it with dotted
            axes such as ``fabric.tier_rates.core`` or
            ``fabric.failures[0]``.
        lb: the load-balancer section (see :class:`LoadBalancerSpec`);
            ``ecmp`` by default and omitted from the canonical document
            when default, so existing hashes are stable.  Campaign sweeps
            address it with ``lb.name`` / ``lb.kwargs.gap`` dotted axes.
        telemetry: the sampling-bus section (see :class:`TelemetrySpec`);
            disabled by default and omitted from the canonical document
            when default, so existing hashes are stable.
        engine: the simulation-kernel section (see :class:`EngineSpec`);
            ``heap`` by default and omitted from the canonical document
            when default, so existing hashes are stable.  Campaign sweeps
            address it with an ``engine.kernel`` dotted axis.
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

    name: str
    scheme: SchemeSpec
    topology: TopologySpec
    workloads: List[WorkloadSpec] = field(default_factory=list)
    transport: TransportSpec = field(default_factory=TransportSpec)
    fabric: FabricSpec = field(default_factory=FabricSpec)
    lb: LoadBalancerSpec = field(default_factory=LoadBalancerSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    duration: float = 0.02
    run_slack: float = 10.0
    seed: int = 0
    alpha_overrides: Dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "name": self.name,
            "scheme": self.scheme.to_dict(),
            "topology": self.topology.to_dict(),
            "workloads": [w.to_dict() for w in self.workloads],
            "transport": self.transport.to_dict(),
            "duration": self.duration,
            "run_slack": self.run_slack,
            "seed": self.seed,
            # JSON objects have string keys; normalize so the canonical
            # encoding (and thus the config hash) is representation-stable.
            "alpha_overrides": {
                str(k): float(v) for k, v in self.alpha_overrides.items()
            },
        }
        # A default fabric is omitted: pre-fabric documents and config
        # hashes stay byte-identical (and campaign --resume caches stay
        # valid) for every symmetric scenario.
        if not self.fabric.is_default():
            doc["fabric"] = self.fabric.to_dict()
        # Same trick for the load balancer: the ecmp default adds nothing.
        if not self.lb.is_default():
            doc["lb"] = self.lb.to_dict()
        # Same trick for telemetry: the disabled default adds nothing.
        if not self.telemetry.is_default():
            doc["telemetry"] = self.telemetry.to_dict()
        # Same trick for the engine: the heap default adds nothing.
        if not self.engine.is_default():
            doc["engine"] = self.engine.to_dict()
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        workloads = data.get("workloads", [])
        if not isinstance(workloads, (list, tuple)):
            raise ValueError(f"workloads must be a list, got {workloads!r}")
        return cls(
            name=str(data.get("name", "scenario")),
            scheme=SchemeSpec.from_dict(data["scheme"]),
            topology=TopologySpec.from_dict(data["topology"]),
            workloads=[WorkloadSpec.from_dict(w) for w in workloads],
            transport=TransportSpec.from_dict(data.get("transport", {})),
            fabric=FabricSpec.from_dict(data.get("fabric")),
            lb=LoadBalancerSpec.from_dict(data.get("lb")),
            telemetry=TelemetrySpec.from_dict(data.get("telemetry")),
            engine=EngineSpec.from_dict(data.get("engine")),
            duration=float(data.get("duration", 0.02)),
            run_slack=float(data.get("run_slack", 10.0)),
            seed=int(data.get("seed", 0)),
            alpha_overrides={
                int(k): float(v)
                for k, v in data.get("alpha_overrides", {}).items()
            },
        )

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

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())

    def config_hash(self) -> str:
        """A 16-hex-digit digest stable across processes and sessions."""
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]

    def label(self) -> str:
        """Compact identity for progress lines and logs."""
        return (f"{self.name} [{self.scheme.name} x {self.topology.kind} x "
                f"{'+'.join(w.kind for w in self.workloads)} seed={self.seed}]")
