"""Persistent on-disk store for campaign results.

Every completed run is persisted as one JSON artifact under
``<root>/runs/<config_hash>.json`` holding the originating :class:`RunSpec`,
the run status, timing, and (on success) the full
:class:`~repro.experiments.common.ExperimentResult` via its lossless
``to_dict``/``from_dict`` round-trip.  The config hash is the primary key:
re-running an identical spec overwrites the same artifact, and ``--resume``
skips any hash already stored with status ``ok``.

Writes are atomic (temp file + ``os.replace``) so a killed campaign never
leaves a half-written artifact behind, and concurrent workers can never
corrupt each other's entries.  An artifact that is torn anyway (disk full,
copied mid-write, edited by hand) reads as absent: it is moved aside as
``<hash>.json.corrupt`` and named in :attr:`ResultStore.quarantined`, so
``--resume`` re-runs exactly that run and nothing dies on a traceback.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.campaign.spec import RunSpec
from repro.experiments.common import ExperimentResult

#: Store-entry status values.
STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass
class StoreEntry:
    """One persisted run: spec + status + (result | error)."""

    spec: RunSpec
    status: str
    elapsed: float = 0.0
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    created_unix: float = 0.0
    config_hash: str = field(default="")

    def __post_init__(self) -> None:
        if not self.config_hash:
            self.config_hash = self.spec.config_hash()

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, object]:
        return {
            "config_hash": self.config_hash,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "elapsed": self.elapsed,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
            "traceback": self.traceback,
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StoreEntry":
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            status=str(data["status"]),
            elapsed=float(data.get("elapsed", 0.0)),
            result=ExperimentResult.from_optional_dict(data.get("result")),
            error=data.get("error"),
            traceback=data.get("traceback"),
            created_unix=float(data.get("created_unix", 0.0)),
            config_hash=str(data.get("config_hash", "")),
        )


class ResultStore:
    """JSON-file result store keyed by :meth:`RunSpec.config_hash`."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        #: File names of torn artifacts this object moved aside while reading.
        self.quarantined: List[str] = []

    # -- paths ---------------------------------------------------------
    def path_for(self, config_hash: str) -> Path:
        return self.runs_dir / f"{config_hash}.json"

    # -- write ---------------------------------------------------------
    def save(self, entry: StoreEntry) -> Path:
        """Atomically persist ``entry``; returns the artifact path."""
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(entry.config_hash)
        payload = json.dumps(entry.to_dict(), indent=2, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.runs_dir, prefix=f".{entry.config_hash}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- read ----------------------------------------------------------
    def _read(self, path: Path) -> Optional[StoreEntry]:
        try:
            return StoreEntry.from_dict(json.loads(path.read_text()))
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError):  # torn: not JSON, or not an entry
            corrupt = path.with_name(path.name + ".corrupt")
            os.replace(path, corrupt)
            self.quarantined.append(corrupt.name)
            return None

    def load(self, config_hash: str) -> Optional[StoreEntry]:
        """The stored entry for ``config_hash``; ``None`` when absent or torn."""
        return self._read(self.path_for(config_hash))

    def completed(self, config_hash: str) -> bool:
        """True if a run with this hash finished successfully."""
        entry = self.load(config_hash)
        return entry is not None and entry.ok

    def entries(self) -> Iterator[StoreEntry]:
        """All stored entries (any status), in stable hash order."""
        if not self.runs_dir.is_dir():
            return
        for path in sorted(self.runs_dir.glob("*.json")):
            entry = self._read(path)
            if entry is not None:
                yield entry

    def ok_entries(self) -> List[StoreEntry]:
        return [e for e in self.entries() if e.ok]

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.entries():
            counts[entry.status] = counts.get(entry.status, 0) + 1
        return counts

    # -- maintenance ---------------------------------------------------
    def clean(self, failed_only: bool = False) -> int:
        """Delete stored artifacts; returns how many were removed."""
        removed = 0
        for entry in list(self.entries()):
            if failed_only and entry.ok:
                continue
            self.path_for(entry.config_hash).unlink(missing_ok=True)
            removed += 1
        return removed
