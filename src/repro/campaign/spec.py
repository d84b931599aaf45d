"""Declarative sweep specifications for experiment campaigns.

A campaign is a grid of experiment runs: experiment x scale x seed x
parameter overrides.  :class:`RunSpec` pins down one run; :class:`GridSpec`
describes a cartesian product of runs; :class:`SweepSpec` names a list of
grids and expands them into the concrete run list the executor consumes.

Specs are expressible both in Python (construct the dataclasses directly)
and as JSON files::

    {
      "name": "occamy-vs-dt",
      "grids": [
        {
          "experiments": ["fig13"],
          "scales": ["bench"],
          "seeds": [0, 1],
          "params": {
            "schemes": [["occamy"], ["dt"]],
            "background_load": [0.3, 0.7]
          }
        }
      ]
    }

Each entry of ``params`` maps a keyword argument of the experiment's ``run``
function to the list of values to sweep; the grid is the cartesian product
over every axis (the example expands to 2 seeds x 2 schemes x 2 loads = 8
runs).

A second grid type, ``"scenario"``, sweeps *declarative scenarios*
(:mod:`repro.scenario`) instead of figure harnesses: a base
:class:`~repro.scenario.spec.ScenarioSpec` document plus dotted-path axes
that can vary **any** scenario dimension -- scheme kwargs, topology shape,
workload mix, buffer size -- with no Python changes::

    {
      "name": "alpha-sweep",
      "grids": [
        {
          "type": "scenario",
          "seeds": [0, 1],
          "scenario": { ... a ScenarioSpec document ... },
          "axes": {
            "scheme.kwargs.alpha": [1.0, 2.0, 4.0, 8.0],
            "topology.params.num_spines": [2, 4]
          }
        }
      ]
    }

Axis paths address nested dict keys with ``.`` and list elements with
``[i]`` (e.g. ``workloads[0].params.load``).

Every :class:`RunSpec` has a stable :meth:`~RunSpec.config_hash` derived
from the canonical JSON encoding of its fields, so the same configuration
hashes identically across processes and sessions -- this is the key of the
on-disk result store and what makes ``--resume`` work.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.scenario.spec import canonical_json
from repro.schema import OMIT_DEFAULT, Section, parse


@dataclass
class RunSpec:
    """One fully-determined experiment run."""

    experiment: str
    scale: str = "small"
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        return cls(
            experiment=str(data["experiment"]),
            scale=str(data.get("scale", "small")),
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
        )

    def config_hash(self) -> str:
        """A 16-hex-digit digest stable across processes and sessions."""
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]

    def label(self) -> str:
        """Compact human-readable identity for progress lines."""
        parts = [self.experiment, f"scale={self.scale}", f"seed={self.seed}"]
        for key in sorted(self.params):
            value = self.params[key]
            if isinstance(value, dict):
                # Scenario documents are large; show their name, not the dict.
                value = value.get("name", f"<{len(value)} keys>")
            parts.append(f"{key}={value}")
        return " ".join(parts)


@dataclass
class GridSpec(Section, section="grid"):
    """A cartesian product of runs over experiments, scales, seeds and params."""

    type: str = field(default="grid", init=False)
    experiments: List[str]
    scales: List[str] = field(default_factory=lambda: ["small"])
    seeds: List[int] = field(default_factory=lambda: [0])
    #: parameter name -> list of values to sweep (cartesian product).
    params: Dict[str, List[object]] = field(default_factory=dict)

    def expand(self) -> Iterator[RunSpec]:
        param_names = sorted(self.params)
        value_lists = [self.params[name] for name in param_names]
        for experiment in self.experiments:
            for scale in self.scales:
                for seed in self.seeds:
                    for combo in itertools.product(*value_lists):
                        yield RunSpec(
                            experiment=experiment,
                            scale=scale,
                            seed=seed,
                            params=dict(zip(param_names, combo, strict=True)),
                        )

    def validate(self, section: str = "grid") -> None:
        if not self.experiments:
            raise ValueError(f"{section}.experiments must be non-empty")


_PATH_SEGMENT = re.compile(r"^(?P<key>[^\[\]]+)?(?P<indices>(\[\d+\])*)$")


def _parse_path(path: str) -> List[Union[str, int]]:
    """``"workloads[0].params.load"`` -> ``["workloads", 0, "params", "load"]``."""
    segments: List[Union[str, int]] = []
    for part in path.split("."):
        match = _PATH_SEGMENT.match(part)
        if match is None or (match.group("key") is None and not match.group("indices")):
            raise ValueError(f"malformed axis path {path!r}")
        if match.group("key"):
            segments.append(match.group("key"))
        for index in re.findall(r"\[(\d+)\]", match.group("indices")):
            segments.append(int(index))
    if not segments:
        raise ValueError("axis path must be non-empty")
    return segments


def set_by_path(data: Dict[str, object], path: str, value: object) -> None:
    """Set a nested value addressed by a dotted ``[i]``-indexed path.

    Intermediate dicts are created on demand; list indices must already
    exist (a sweep cannot invent workload slots).
    """
    segments = _parse_path(path)
    target = data
    for here, ahead in zip(segments[:-1], segments[1:], strict=True):
        if isinstance(here, int):
            if not isinstance(target, list) or here >= len(target):
                raise ValueError(f"axis path {path!r}: index [{here}] out of range")
            target = target[here]
        else:
            if not isinstance(target, dict):
                raise ValueError(f"axis path {path!r}: {here!r} is not a mapping")
            if here not in target:
                target[here] = [] if isinstance(ahead, int) else {}
            target = target[here]
    last = segments[-1]
    if isinstance(last, int):
        if not isinstance(target, list) or last >= len(target):
            raise ValueError(f"axis path {path!r}: index [{last}] out of range")
        target[last] = value
    else:
        if not isinstance(target, dict):
            raise ValueError(f"axis path {path!r}: {last!r} is not a mapping")
        target[last] = value


@dataclass
class ScenarioGridSpec(Section, section="grid"):
    """A sweep over declarative scenarios: base document x axes x seeds.

    ``scenario`` is a :class:`~repro.scenario.spec.ScenarioSpec` dict; each
    ``axes`` entry maps a dotted path inside that document to the values to
    sweep.  Every combination expands to a ``RunSpec`` of the pseudo
    experiment ``"scenario"``.  An explicit ``seeds`` list overrides the
    document's embedded seed; without one (``None``), the document's own
    seed (default 0) is the single seed, so both entry points agree on what
    one document means.
    """

    type: str = field(default="scenario", init=False)
    scenario: Dict[str, object]
    axes: Dict[str, List[object]] = field(default_factory=dict)
    seeds: Optional[List[int]] = field(default=None, metadata=OMIT_DEFAULT)

    def validate(self, section: str = "grid") -> None:
        if self.seeds is None:
            parse(int, self.scenario.get("seed", 0), f"{section}.scenario.seed")

    def expand(self) -> Iterator[RunSpec]:
        axis_paths = sorted(self.axes)
        value_lists = [self.axes[path] for path in axis_paths]
        seeds = ([self.scenario.get("seed", 0)] if self.seeds is None
                 else self.seeds)
        for seed in seeds:
            for combo in itertools.product(*value_lists):
                document = copy.deepcopy(self.scenario)
                for path, value in zip(axis_paths, combo, strict=True):
                    set_by_path(document, path, value)
                yield RunSpec(
                    experiment="scenario",
                    scale="-",
                    seed=seed,
                    params={"scenario": document},
                )


AnyGridSpec = Union[GridSpec, ScenarioGridSpec]


@dataclass
class SweepSpec(Section, section="sweep", document=True):
    """A named campaign: a list of grids expanded into concrete runs."""

    name: str = field(metadata={"absent": "campaign"})
    grids: List[AnyGridSpec] = field(default_factory=list)

    def validate(self) -> None:
        for index, grid in enumerate(self.grids):
            grid.validate(f"grids[{index}]")

    def expand(self) -> List[RunSpec]:
        """All runs of the campaign, deduplicated by config hash."""
        seen: Dict[str, RunSpec] = {}
        for grid in self.grids:
            for spec in grid.expand():
                seen.setdefault(spec.config_hash(), spec)
        return list(seen.values())

    @classmethod
    def single(cls, name: str, specs: Sequence[RunSpec]) -> "SweepSpec":
        """Wrap pre-built :class:`RunSpec`s (one single-point grid each)."""
        grids = [
            GridSpec(
                experiments=[s.experiment],
                scales=[s.scale],
                seeds=[s.seed],
                params={k: [v] for k, v in s.params.items()},
            )
            for s in specs
        ]
        return cls(name=name, grids=grids)
