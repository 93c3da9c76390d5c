"""The flight recorder: a bounded ring buffer of structured query events.

Post-hoc aggregates answer "what did the query cost"; they cannot answer
"what was the engine doing right before it fell over".  A
:class:`FlightRecorder` keeps the last *N* structured events — comparison
resolutions, span closes, reference changes, injected faults, retries,
checkpoints, degraded ties — in a fixed-size ring, stamped with a
monotonically increasing sequence number and a wall-clock time.  It
subscribes through the two observation channels the library already has
(:meth:`MetricsRegistry.add_listener` for registry events,
:meth:`CrowdSession.add_compare_listener` for per-comparison records), so
recording never patches globals and never touches RNG or ledgers — a
recorded query is bit-identical to an unrecorded one.

The ring dumps to JSON on demand (:meth:`FlightRecorder.dump`) or
automatically on an unhandled exception (:meth:`FlightRecorder.guard`) —
the crowdsourcing equivalent of the black box surviving the crash.  The
observatory server's ``/events`` endpoint serves the live tail.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from contextlib import contextmanager

from .sinks import _jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.comparison import ComparisonRecord
    from ..crowd.session import CrowdSession
    from .registry import MetricsRegistry

__all__ = ["FlightRecorder"]

#: Default ring capacity (events retained before the oldest drop off).
DEFAULT_CAPACITY = 2048


class FlightRecorder:
    """Bounded, thread-safe ring buffer of telemetry events.

    Parameters
    ----------
    capacity:
        Events retained; older ones fall off the ring.  Total events seen
        is still available as :attr:`events_seen`.  ``None`` keeps every
        event, which an explain report needs (see
        :func:`~repro.reports.explain_query`).
    clock:
        Wall-clock source for the ``t`` stamp (injectable for tests).
    """

    def __init__(
        self, capacity: int | None = DEFAULT_CAPACITY, clock=time.time
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        self._registry: "MetricsRegistry | None" = None
        self._session: "CrowdSession | None" = None

    # ------------------------------------------------------------------
    # attachment lifecycle
    # ------------------------------------------------------------------
    def attach(
        self,
        registry: "MetricsRegistry | None" = None,
        session: "CrowdSession | None" = None,
    ) -> "FlightRecorder":
        """Subscribe to a registry's event stream and/or a session's
        comparison feed (both idempotent; re-attach is a no-op).

        A recorder follows one registry and one session at a time;
        attaching to another raises :class:`ValueError` until
        :meth:`detach`.
        """
        for current, new in ((self._registry, registry), (self._session, session)):
            if current is not None and new is not None and new is not current:
                raise ValueError(
                    f"recorder is attached to another {type(new).__name__}; "
                    "detach() first"
                )
        if registry is not None and self._registry is None:
            self._registry = registry
            registry.add_listener(self.record)
        if session is not None and self._session is None:
            self._session = session
            session.add_compare_listener(self.record_comparison)
        return self

    def detach(self) -> None:
        """Unsubscribe from both feeds (idempotent); the ring survives."""
        if self._registry is not None:
            self._registry.remove_listener(self.record)
            self._registry = None
        if self._session is not None:
            self._session.remove_compare_listener(self.record_comparison)
            self._session = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, event: dict) -> None:
        """Capture one structured event (registry-listener compatible)."""
        with self._lock:
            self._seq += 1
            self._ring.append({"seq": self._seq, "t": self._clock(), **event})

    def record_comparison(
        self, session: "CrowdSession", record: "ComparisonRecord"
    ) -> None:
        """Capture one resolved comparison (compare-listener compatible).

        ``phase`` is the innermost of the session's open spans when the
        comparison resolved (``None`` outside every span).
        """
        spans = session.open_spans
        self.record(
            {
                "type": "comparison",
                "phase": spans[-1].name if spans else None,
                "left": record.left,
                "right": record.right,
                "outcome": record.outcome.name,
                "workload": record.workload,
                "cost": record.cost,
                "rounds": record.rounds,
                "from_cache": record.from_cache,
                "total_cost": session.cost.microtasks,
            }
        )

    # ------------------------------------------------------------------
    # reading and dumping
    # ------------------------------------------------------------------
    @property
    def events_seen(self) -> int:
        """Total events ever recorded (>= the ring's current length)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._ring)

    def tail(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` events, oldest first (all when None)."""
        with self._lock:
            events = list(self._ring)
        if n is not None and n >= 0:
            events = events[-n:] if n else []
        return events

    def to_dict(self) -> dict:
        """JSON-ready document: the ring plus capture bookkeeping."""
        with self._lock:
            events = list(self._ring)
            seen = self._seq
        return {
            "capacity": self.capacity,
            "events_seen": seen,
            "events_dropped": max(seen - len(events), 0),
            "events": events,
        }

    def dump(self, path: str | Path, reason: str = "on-demand") -> Path:
        """Write the ring to ``path`` as one JSON document; returns it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"reason": reason, "dumped_at": self._clock(), **self.to_dict()}
        path.write_text(
            json.dumps(document, default=_jsonable, indent=2) + "\n",
            encoding="utf-8",
        )
        if self._registry is not None:
            self._registry.counter("flight_recorder_dumps_total").inc()
        return path

    @contextmanager
    def guard(self, path: str | Path) -> Iterator["FlightRecorder"]:
        """Dump the ring to ``path`` if the block raises, then re-raise.

        The black-box contract: an unhandled exception anywhere inside
        the guarded query leaves the last N events on disk, annotated
        with the exception that killed the run.
        """
        try:
            yield self
        except BaseException as exc:
            self.record(
                {
                    "type": "crash",
                    "exception": type(exc).__name__,
                    "message": str(exc),
                }
            )
            self.dump(path, reason=f"unhandled {type(exc).__name__}")
            raise
