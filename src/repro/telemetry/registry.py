"""Metric primitives and the registry that owns them.

The paper's whole evaluation is an accounting exercise — total monetary
cost, latency rounds, per-phase breakdowns (§7, Fig. 12, Table 7) — so the
reproduction carries a first-class metrics layer:

* :class:`Counter` — monotonically increasing totals (microtasks bought,
  comparisons run, cache hits).
* :class:`Gauge` — point-in-time values (active racing pairs).
* :class:`Histogram` — streaming distributions with p50/p95/p99 quantile
  estimates (comparison workloads, per-run wall time).
* :class:`Span` — a timed region with crowd-cost attribution: entering a
  span snapshots the session's ledgers, exiting records the deltas, and
  nesting is tracked so *exclusive* (self-only) cost is always available.

A :class:`MetricsRegistry` owns one family of each, keyed by metric name
plus a frozen label set, and renders them as a JSON snapshot, a
Prometheus-style text exposition, or an aligned summary table.  Metric
*updates* are plain attribute arithmetic guarded only by the GIL — the
simulator is single-threaded per query — but instrument *creation* and
the read-side exports (:meth:`~MetricsRegistry.snapshot`,
:meth:`~MetricsRegistry.expose_text`) take an internal lock, so an HTTP
scrape thread (see :mod:`repro.telemetry.server`) can read mid-query
without racing a family being installed under its feet.
"""

from __future__ import annotations

import math
import random
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "MetricsRegistry",
]

LabelSet = tuple[tuple[str, str], ...]


def _freeze_labels(labels: dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    """Escaping for ``# HELP`` text: backslash and newline only (the
    exposition format leaves quotes alone outside label values)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


#: Help strings emitted as ``# HELP`` lines for the library's own metric
#: names.  Instruments outside this catalog can attach help text with
#: :meth:`MetricsRegistry.describe`; nameless ones render without a HELP
#: line, which the exposition format permits.
METRIC_HELP: dict[str, str] = {
    "crowd_comparisons_total": "Pairwise comparison processes resolved.",
    "crowd_microtasks_total": "Judgments purchased (total monetary cost).",
    "crowd_cache_hits_total": "Comparisons answered from the judgment cache.",
    "crowd_budget_ties_total": "Comparisons that exhausted the per-pair budget.",
    "crowd_groups_total": "Parallel comparison groups raced.",
    "crowd_pool_rounds_total": "Vectorized racing rounds executed.",
    "crowd_faults_total": "Injected platform faults, by mode.",
    "crowd_retries_total": "Re-issued rounds after delivery failures.",
    "crowd_degraded_ties_total": "Comparisons degraded to TIE by the resilience policy.",
    "crowd_checkpoints_total": "Checkpoints atomically written.",
    "oracle_judgments_total": "Raw judgments drawn from oracles.",
    "oracle_wasted_judgments_total": "Exactly-tied binary judgments redrawn.",
    "worker_careless_judgments_total": "Judgments contaminated by careless workers.",
    "spr_reference_changes_total": "Reference-change events during partitioning.",
    "spr_deferments_total": "Items deferred after tying with the reference.",
    "spr_recursions_total": "Recursive SPR invocations.",
    "experiment_runs_total": "Completed experiment runs per method.",
    "crowd_comparison_workload": "Judgments consumed per comparison.",
    "span_seconds": "Wall seconds per completed span.",
    "span_cost": "Microtasks per completed span.",
    "experiment_run_wall_seconds": "Wall seconds per experiment run.",
    "experiment_run_cost": "Total monetary cost per experiment run.",
    "observatory_requests_total": "HTTP requests served by the observatory.",
    "flight_recorder_dumps_total": "Flight-recorder dumps written to disk.",
    "service_queries_total": "Service queries finished, by tenant and terminal status.",
    "service_active_queries": "Service queries currently running.",
    "service_admissions_total": "Admission-control decisions, by outcome.",
    "service_sla_breaches_total": "Queries terminated by an SLA, by kind.",
    "service_recovered_queries_total": "Queries resumed from checkpoints after recovery.",
    "service_granted_microtasks_total": "Microtasks granted by the marketplace, by tenant.",
    "service_grant_waits_total": "Draw requests parked behind the marketplace, by tenant.",
    "service_cache_hits_total": "Shared-cache reads that found judgments, by tenant.",
    "service_cache_misses_total": "Shared-cache reads that found nothing, by tenant.",
    "service_cache_evictions_total": "Pairs evicted from the shared cache, by tenant.",
    "service_cache_entries": "Pairs held by the shared cross-query cache.",
    "service_cache_bytes": "Accounted bytes held by the shared cross-query cache.",
}


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount

    def add(self, amount: float) -> None:
        """Batched increment: one call for a whole round's worth of events.

        Identical to :meth:`inc` — integral totals below 2**53 make ``n``
        single increments and one ``add(n)`` bit-for-bit equal — but the
        explicit name marks call sites that coalesce per-record counting
        into per-round counting (see docs/observability.md).
        """
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value that can move both ways."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """A streaming distribution with quantile estimates.

    Observations are kept exactly up to ``reservoir`` samples; beyond that
    a uniform reservoir sample stands in, so quantiles stay O(1) memory on
    unbounded streams.  Quantiles use the same linear interpolation as
    ``numpy.quantile`` and are exact below the reservoir size.
    """

    #: Default maximum number of retained observations.
    RESERVOIR = 4096

    def __init__(
        self, name: str, labels: LabelSet = (), reservoir: int | None = None
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._cap = reservoir if reservoir is not None else self.RESERVOIR
        self._values: list[float] = []
        # Deterministic reservoir choices keep snapshots reproducible.  The
        # seed hashes the name with crc32, not hash(): str hashes change
        # from process to process.
        self._rng = random.Random(0x5EED ^ zlib.crc32(name.encode()) & 0xFFFF)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._values) < self._cap:
            self._values.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._cap:
                self._values[slot] = value

    def observe_many(self, values: "list[float] | tuple[float, ...]") -> None:
        """Record many observations in order, as :meth:`observe` would.

        ``sum`` accumulates value by value in the given order and the
        reservoir sees the same admission sequence, so the result is
        bit-identical to a loop of :meth:`observe` calls — the batching
        only removes the per-call method dispatch and, while the
        reservoir still has room, replaces per-value min/max/append
        bookkeeping with whole-batch operations.
        """
        if not values:
            return
        values = [float(value) for value in values]
        if len(self._values) + len(values) <= self._cap:
            # Reservoir fits: admission is a plain extend, min/max reduce
            # over the batch, and only the sum keeps its sequential order
            # (float addition is not associative).
            for value in values:
                self.sum += value
            self.count += len(values)
            low, high = min(values), max(values)
            if low < self.min:
                self.min = low
            if high > self.max:
                self.max = high
            self._values.extend(values)
        else:
            for value in values:
                self.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (exact below the reservoir size)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return math.nan
        ordered = sorted(self._values)
        position = q * (len(ordered) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            return ordered[lower]
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 summary."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Count, sum, min and max combine exactly.  Retained samples are
        appended while the reservoir has room; beyond the cap the incoming
        samples go through the same deterministic reservoir replacement as
        :meth:`observe`, so quantiles stay exact whenever the *combined*
        stream fits the reservoir and remain estimates past it.
        """
        if other.count == 0:
            return
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for value in other._values:
            if len(self._values) < self._cap:
                self._values.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._cap:
                    self._values[slot] = value


@dataclass
class Span:
    """One timed region, optionally attributed with crowd spending.

    When opened with a session, ``cost``/``rounds`` hold the ledger deltas
    the region produced *including* nested spans; the ``child_*`` fields
    accumulate what nested spans claimed, so ``exclusive_cost`` /
    ``exclusive_rounds`` never double-count a microtask across a span tree.
    """

    name: str
    parent: str | None = None
    depth: int = 0
    seconds: float = 0.0
    cost: int | None = None
    rounds: int | None = None
    child_seconds: float = 0.0
    child_cost: int = 0
    child_rounds: int = 0
    attrs: dict[str, object] = field(default_factory=dict)
    _started: float = 0.0
    _cost0: int = 0
    _rounds0: int = 0

    @property
    def exclusive_cost(self) -> int | None:
        """Microtasks spent in this span but not in any nested span."""
        if self.cost is None:
            return None
        return self.cost - self.child_cost

    @property
    def exclusive_rounds(self) -> int | None:
        """Latency rounds charged in this span but not in any nested span."""
        if self.rounds is None:
            return None
        return self.rounds - self.child_rounds

    @property
    def exclusive_seconds(self) -> float:
        return self.seconds - self.child_seconds

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by sinks and snapshots)."""
        payload: dict[str, object] = {
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "seconds": self.seconds,
        }
        if self.cost is not None:
            payload["cost"] = self.cost
            payload["exclusive_cost"] = self.exclusive_cost
        if self.rounds is not None:
            payload["rounds"] = self.rounds
            payload["exclusive_rounds"] = self.exclusive_rounds
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class MetricsRegistry:
    """Owns all metric families and completed spans of one scope.

    One registry is typically installed process-wide (see
    :func:`repro.telemetry.get_registry`) and replaced with a fresh one per
    query / benchmark via :func:`repro.telemetry.use_registry` when an
    isolated snapshot is wanted.
    """

    #: Completed spans kept before the oldest are dropped (a recursion
    #: backstop; drops are themselves counted).
    MAX_SPANS = 50_000

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelSet], Counter] = {}
        self._gauges: dict[tuple[str, LabelSet], Gauge] = {}
        self._histograms: dict[tuple[str, LabelSet], Histogram] = {}
        self.spans: list[Span] = []
        self.dropped_spans = 0
        # Each thread nests its own spans: concurrent queries on one
        # registry must not adopt each other's spans as parents.
        self._local = threading.local()
        self._listeners: list[Callable[[dict[str, object]], None]] = []
        self._help: dict[str, str] = {}
        # Guards family creation and the read-side exports against a
        # concurrent scrape thread; value arithmetic stays lock-free.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        # Worker registries travel back to the parent process (the
        # parallel experiment engine); locks, listeners and open spans
        # do not pickle and never transfer.
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_local"] = None
        state["_listeners"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # metric families
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        """The counter ``name`` with ``labels`` (created on first use)."""
        key = (name, _freeze_labels(labels))
        found = self._counters.get(key)
        if found is None:
            with self._lock:
                found = self._counters.setdefault(key, Counter(name, key[1]))
        return found

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge ``name`` with ``labels`` (created on first use)."""
        key = (name, _freeze_labels(labels))
        found = self._gauges.get(key)
        if found is None:
            with self._lock:
                found = self._gauges.setdefault(key, Gauge(name, key[1]))
        return found

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram ``name`` with ``labels`` (created on first use)."""
        key = (name, _freeze_labels(labels))
        found = self._histograms.get(key)
        if found is None:
            with self._lock:
                found = self._histograms.setdefault(key, Histogram(name, key[1]))
        return found

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of a counter (0 when it was never touched)."""
        found = self._counters.get((name, _freeze_labels(labels)))
        return found.value if found is not None else 0.0

    def counter_total(self, name: str) -> float:
        """Sum of a counter family across every label set."""
        with self._lock:
            return sum(
                counter.value
                for (counter_name, _), counter in self._counters.items()
                if counter_name == name
            )

    def describe(self, name: str, help_text: str) -> None:
        """Attach ``# HELP`` text to metric family ``name``.

        Library metric names carry defaults (:data:`METRIC_HELP`);
        ``describe`` overrides those or documents custom instruments.
        """
        with self._lock:
            self._help[name] = help_text

    def help_for(self, name: str) -> str | None:
        """The HELP text for ``name`` (explicit beats catalog; None if none)."""
        return self._help.get(name) or METRIC_HELP.get(name)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self, name: str, session: "CrowdSession | None" = None, **attrs: object
    ) -> Iterator[Span]:
        """Time a region; with a session, attribute its ledger deltas.

        Spans nest per thread: a span opened while another is open in
        the same thread records that parent, and on exit reports its
        inclusive totals upward so parents can expose exclusive
        (self-only) figures.  With a session, the span is also one of
        the session's :attr:`~repro.crowd.session.CrowdSession.open_spans`
        while it is open.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            parent=parent.name if parent is not None else None,
            depth=len(stack),
            attrs=dict(attrs),
        )
        if session is not None:
            span._cost0, span._rounds0 = session.spent()
            span.cost = 0
            span.rounds = 0
            session.open_spans.append(span)
        span._started = time.perf_counter()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.seconds = time.perf_counter() - span._started
            if session is not None:
                session.open_spans.pop()
                cost, rounds = session.spent()
                span.cost = cost - span._cost0
                span.rounds = rounds - span._rounds0
            if parent is not None:
                parent.child_seconds += span.seconds
                parent.child_cost += span.cost or 0
                parent.child_rounds += span.rounds or 0
            self._finish_span(span)

    def _finish_span(self, span: Span) -> None:
        with self._lock:
            if len(self.spans) >= self.MAX_SPANS:
                self.dropped_spans += 1
            else:
                self.spans.append(span)
        self.histogram("span_seconds", span=span.name).observe(span.seconds)
        if span.cost is not None:
            self.histogram("span_cost", span=span.name).observe(span.cost)
        event = {"type": "span", **span.to_dict()}
        for listener in list(self._listeners):
            listener(event)

    # ------------------------------------------------------------------
    # structured events (flight recorder / streaming sinks)
    # ------------------------------------------------------------------
    @property
    def has_listeners(self) -> bool:
        """Whether any event listener is attached.

        Hot paths whose :meth:`emit` *arguments* are themselves expensive
        to build (per-pair id lists, aggregates) check this first so the
        payload is never constructed for nobody — ``emit`` alone only
        protects against the broadcast, not the argument evaluation at
        the call site.
        """
        return bool(self._listeners)

    def emit(self, event_type: str, **fields: object) -> None:
        """Broadcast a structured event to every listener.

        Free when nobody listens — instrumented hot paths call this for
        notable moments (reference change, degraded tie, retry, fault,
        checkpoint) and pay only a truthiness check until a flight
        recorder or JSONL sink subscribes.  Events never touch RNG or
        ledgers, so recording cannot perturb a query.
        """
        if not self._listeners:
            return
        event = {"type": event_type, **fields}
        for listener in list(self._listeners):
            listener(event)

    # ------------------------------------------------------------------
    # listeners (streaming sinks subscribe here)
    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[dict[str, object]], None]) -> None:
        """Subscribe to telemetry events (span completions, :meth:`emit`)."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[dict[str, object]], None]) -> None:
        """Unsubscribe a previously added listener (no-op when absent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # merging (parallel experiment workers reconcile through this)
    # ------------------------------------------------------------------
    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """Fold other registries into this one; returns ``self``.

        The reconciliation rules match what each instrument means:

        * **counters** add — totals from independent workers sum;
        * **gauges** last-write — the value from the last merged registry
          (merge in chronological order to mirror a serial execution);
        * **histograms** combine — exact ``count``/``sum``/``min``/``max``,
          reservoir samples appended (see :meth:`Histogram.merge_from`);
        * **spans** concatenate in merge order, still bounded by
          ``MAX_SPANS`` (overflow counts into ``dropped_spans``).

        Listeners do not transfer: merged spans were already completed in
        their source registry and are not re-announced.  Merging worker
        registries spawned by the parallel experiment engine in task order
        reproduces the serial registry exactly (up to wall-clock timings
        and histogram reservoirs past the cap).
        """
        for other in others:
            if other is self:
                raise ValueError("cannot merge a registry into itself")
            with self._lock:
                self._help.update(other._help)
            for (name, labels), counter in other._counters.items():
                self.counter(name, **dict(labels)).inc(counter.value)
            for (name, labels), gauge in other._gauges.items():
                self.gauge(name, **dict(labels)).set(gauge.value)
            for (name, labels), histogram in other._histograms.items():
                self.histogram(name, **dict(labels)).merge_from(histogram)
            for span in other.spans:
                if len(self.spans) >= self.MAX_SPANS:
                    self.dropped_spans += 1
                else:
                    self.spans.append(span)
            self.dropped_spans += other.dropped_spans
        return self

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """A JSON-ready snapshot of every metric and completed span."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict[str, object]:
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for _, c in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for _, g in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    **h.percentiles(),
                }
                for _, h in sorted(self._histograms.items())
            ],
            "spans": [s.to_dict() for s in self.spans],
            "dropped_spans": self.dropped_spans,
        }

    def expose_text(self) -> str:
        """Prometheus-style text exposition of all metrics.

        Counters and gauges render as their native types; histograms render
        as summaries (quantile-labelled samples plus ``_sum``/``_count``).
        Each family opens with its ``# HELP`` line (when help text is
        known — see :meth:`describe` and :data:`METRIC_HELP`) followed by
        ``# TYPE``.  Thread-safe: the whole exposition renders under the
        registry lock, so a scrape never interleaves with family creation.
        """
        with self._lock:
            return self._expose_text_locked()

    def _expose_text_locked(self) -> str:
        lines: list[str] = []
        seen_types: set[str] = set()

        def header(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                help_text = self.help_for(name)
                if help_text:
                    lines.append(f"# HELP {name} {_escape_help(help_text)}")
                lines.append(f"# TYPE {name} {kind}")

        for _, counter in sorted(self._counters.items()):
            header(counter.name, "counter")
            lines.append(
                f"{counter.name}{_label_suffix(counter.labels)} {_num(counter.value)}"
            )
        for _, gauge in sorted(self._gauges.items()):
            header(gauge.name, "gauge")
            lines.append(
                f"{gauge.name}{_label_suffix(gauge.labels)} {_num(gauge.value)}"
            )
        for _, hist in sorted(self._histograms.items()):
            header(hist.name, "summary")
            for q, value in (
                ("0.5", hist.quantile(0.5)),
                ("0.95", hist.quantile(0.95)),
                ("0.99", hist.quantile(0.99)),
            ):
                labels = _freeze_labels(
                    {**dict(hist.labels), "quantile": q}
                )
                lines.append(f"{hist.name}{_label_suffix(labels)} {_num(value)}")
            suffix = _label_suffix(hist.labels)
            lines.append(f"{hist.name}_sum{suffix} {_num(hist.sum)}")
            lines.append(f"{hist.name}_count{suffix} {_num(hist.count)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def summary_table(self) -> str:
        """An aligned human-readable digest (printed by the CLI)."""
        with self._lock:
            return self._summary_table_locked()

    def _summary_table_locked(self) -> str:
        lines: list[str] = ["telemetry summary", "-----------------"]
        if self._counters:
            lines.append("counters:")
            for _, counter in sorted(self._counters.items()):
                label = counter.name + _label_suffix(counter.labels)
                lines.append(f"  {label:44s} {_short(counter.value):>12s}")
        if self._gauges:
            lines.append("gauges:")
            for _, gauge in sorted(self._gauges.items()):
                label = gauge.name + _label_suffix(gauge.labels)
                lines.append(f"  {label:44s} {_short(gauge.value):>12s}")
        if self._histograms:
            lines.append(
                f"  {'histogram':42s} {'count':>8s} {'mean':>10s}"
                f" {'p50':>10s} {'p95':>10s} {'p99':>10s}"
            )
            for _, hist in sorted(self._histograms.items()):
                pct = hist.percentiles()
                label = hist.name + _label_suffix(hist.labels)
                lines.append(
                    f"  {label:42s} {hist.count:8d} {_short(hist.mean):>10s}"
                    f" {_short(pct['p50']):>10s} {_short(pct['p95']):>10s}"
                    f" {_short(pct['p99']):>10s}"
                )
        if self.spans:
            totals: dict[str, list[float]] = {}
            for span in self.spans:
                bucket = totals.setdefault(span.name, [0, 0.0, 0, 0])
                bucket[0] += 1
                bucket[1] += span.exclusive_seconds
                bucket[2] += span.exclusive_cost or 0
                bucket[3] += span.exclusive_rounds or 0
            lines.append(
                f"  {'span (exclusive totals)':42s} {'count':>8s}"
                f" {'seconds':>10s} {'cost':>10s} {'rounds':>10s}"
            )
            for name, (count, secs, cost, rounds) in sorted(totals.items()):
                lines.append(
                    f"  {name:42s} {count:8d} {secs:>10.3f}"
                    f" {int(cost):>10d} {int(rounds):>10d}"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every metric, span, listener, and described help text."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self.spans.clear()
            self.dropped_spans = 0
            self._local = threading.local()
            self._listeners.clear()
            self._help.clear()


def _short(value: float) -> str:
    """Compact rendering for the human summary table."""
    if value != value:
        return "-"
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,d}"
    return f"{value:.4g}"


def _num(value: float) -> str:
    """Render a metric value the way Prometheus expects."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
