"""Telemetry sinks: JSONL event/snapshot export.

A :class:`JsonlSink` turns telemetry into a machine-readable audit trail:
subscribe it to a registry and every completed span streams out as one
JSON line; call :meth:`JsonlSink.write_snapshot` at the end of a query or
benchmark and the full registry state follows — one line per metric, then
a single ``snapshot`` line holding everything, so downstream tooling can
either tail the file or just parse the last line.

The text expositions (Prometheus format, summary table) live on
:class:`~repro.telemetry.registry.MetricsRegistry` itself; this module
only handles files.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from pathlib import Path
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import MetricsRegistry

__all__ = ["JsonlSink", "read_jsonl"]


class JsonlSink:
    """Write telemetry events and snapshots to a JSON-lines file.

    Usable as a context manager; the file is opened lazily on the first
    write so constructing a sink never touches the filesystem.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None

    def _file(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        return self._handle

    def open(self) -> "JsonlSink":
        """Open the file now instead of on first write.

        Lets callers surface an unwritable path before doing the work
        whose telemetry would be lost.
        """
        self._file()
        return self

    def write_event(self, event: dict[str, object]) -> None:
        """Append one event as a JSON line (registry-listener compatible)."""
        handle = self._file()
        handle.write(json.dumps(event, default=_jsonable) + "\n")
        handle.flush()

    def write_snapshot(self, registry: "MetricsRegistry") -> None:
        """Write every metric as its own line, then the full snapshot."""
        snapshot = registry.snapshot()
        for kind in ("counters", "gauges", "histograms"):
            for entry in snapshot[kind]:
                self.write_event({"type": kind[:-1], **entry})
        self.write_event({"type": "snapshot", **snapshot})

    def close(self) -> None:
        """Flush, fsync, and close the underlying file (idempotent).

        The fsync pins every telemetry line to disk before the process
        can exit, so a crash immediately after a query still leaves the
        full snapshot readable — telemetry files double as audit trails.
        """
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):  # pragma: no cover - exotic targets
                pass  # pipes and pseudo-files may not support fsync
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    """Parse a JSONL telemetry file back into a list of events."""
    events = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _jsonable(value: object) -> object:
    """Fallback serializer for numpy scalars, read-only mappings (a
    query's progress sections) and similar."""
    if isinstance(value, Mapping):
        return dict(value)
    item = getattr(value, "item", None)
    return item() if callable(item) else str(value)
