"""Queue-depth timelines across many stored runs.

Any telemetry-carrying document (a store, a store entry, a scenario or
experiment result, a bare telemetry section) goes through
:mod:`repro.telemetry.series`' series selection and CSV writer, one
commented block per run (``# label=... experiment=...``), so a whole
campaign's queue dynamics land in a single file.  Blocks are ordered by
document label, making repeated invocations over the same store
byte-identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TextIO

from repro.analysis.sources import RunDocument
from repro.telemetry.series import select_series, write_csv

#: Default series selection: switch occupancy plus any per-port backlogs.
DEFAULT_PATTERNS = ("switch.*occupancy_bytes", "switch.*backlog_bytes")


def documents_with_telemetry(documents: Sequence[RunDocument]
                             ) -> List[RunDocument]:
    return sorted(
        (doc for doc in documents if doc.ok and doc.telemetry is not None),
        key=lambda doc: doc.label)


def write_qlen_csv(documents: Sequence[RunDocument], stream: TextIO,
                   patterns: Optional[Sequence[str]] = None) -> int:
    """Write per-run queue-depth CSV blocks; returns the block count.

    With explicit ``patterns``, a run matching none of them is an error;
    with the default selection,
    runs without queue-depth series are skipped silently -- a mixed store
    should not kill the export.
    """
    explicit = patterns is not None
    patterns = list(patterns) if explicit else list(DEFAULT_PATTERNS)
    blocks = 0
    for doc in documents_with_telemetry(documents):
        try:
            select_series(doc.telemetry, patterns)
        except ValueError:
            if explicit:
                raise
            continue
        stream.write(f"# label={doc.label} experiment={doc.experiment} "
                     f"seed={doc.seed}\n")
        write_csv(doc.telemetry, stream, patterns)
        blocks += 1
    if blocks == 0:
        raise ValueError(
            "no telemetry-carrying documents match the series selection; "
            "were the runs executed with telemetry enabled "
            "(spec section 'telemetry.enabled')?")
    return blocks
