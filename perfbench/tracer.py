"""Outside-in layer tracer for the traced benchmark run.

The tracer replaces the public functions of each layer with thin timing
wrappers; nothing in ``src/`` changes.  Every wrapper pushes a frame on a
per-thread span stack, so a layer's *self* time is its call's duration
minus the durations of the traced calls made inside it.  Self times over
all layers therefore sum to the duration of the outermost (root) calls,
which is what the benchmark compares against the query wall time.

Counts (judgments drawn, decision cells, pool rounds, ...) are taken at
the same wrappers, and only on the outermost call of a layer, so a
subclass delegating to its base class is not counted twice.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict

#: Every traced layer, named after the module that owns it.
LAYERS = (
    "algorithms",
    "algorithms.bdp.scorer",
    "crowd.oracle",
    "core.estimators",
    "crowd.pool",
    "crowd.session",
    "core.cache",
    "crowd.ledger",
    "telemetry.registry",
    "service.scheduler",
    "telemetry.server",
    "datasets",
)


#: Metric name of each layer's self seconds (per query).
SELF_METRIC = {
    "algorithms.bdp.scorer": "algorithms.bdp.scorer_s",
    "service.scheduler": "service.scheduler.gate_s",
    "telemetry.server": "telemetry.server.handler_s",
}

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER = {
    **{SELF_METRIC.get(layer, f"{layer}.self_s"): "s/query" for layer in LAYERS},
    "crowd.oracle.judgments_drawn": "count/query",
    "crowd.oracle.draw_utilization": "ratio",
    "core.estimators.cells": "count/query",
    "crowd.pool.rounds": "count/query",
    "crowd.pool.us_per_round": "us",
    "crowd.session.groups": "count/query",
    "crowd.session.pairs_per_group": "count",
    "core.cache.calls": "count/query",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count/query",
    "algorithms.bdp.scorer_calls": "count/query",
    "service.scheduler.queue_wait_ms_p50": "ms",
    "telemetry.server.requests_per_query": "count/query",
    "datasets.load_s": "s",
    "trace.layers_sum_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.queries_per_s": "1/s",
    "trace.untraced_queries_per_s": "1/s",
}


def diff(after: dict, before: dict) -> dict:
    """Totals accrued between two :meth:`Tracer.totals` snapshots."""
    counts = dict(after["counts"])
    for name, value in before["counts"].items():
        counts[name] = counts.get(name, 0.0) - value
    return {
        "self_s": {k: v - before["self_s"][k] for k, v in after["self_s"].items()},
        "counts": counts,
        "root_s": after["root_s"] - before["root_s"],
        "queue_waits_s": after["queue_waits_s"][len(before["queue_waits_s"]):],
    }


def layer_metrics(
    totals: dict,
    *,
    queries: int,
    query_wall_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
    load_s: float,
    requests: float = 0.0,
    cache: tuple[int, int, int] = (0, 0, 0),
) -> dict:
    """The :data:`PER_LAYER` metrics from one traced phase of ``queries``.

    ``query_wall_s`` is what the layers' self seconds must add up to;
    the untraced wall is for the same queries, so the two walls give the
    tracing overhead.  ``cache`` is the service cache's (hits, misses,
    evictions).
    """
    self_s, counts = totals["self_s"], totals["counts"]
    count = lambda name: counts.get(name, 0.0)  # noqa: E731
    per_query = lambda value: value / queries  # noqa: E731
    metrics = {
        SELF_METRIC.get(layer, f"{layer}.self_s"): per_query(self_s[layer])
        for layer in LAYERS
    }
    drawn = count("crowd.oracle.judgments_drawn")
    rounds = count("crowd.pool.rounds")
    groups = count("crowd.session.groups")
    hits, misses, evictions = cache
    waits = totals["queue_waits_s"]
    metrics.update({
        "crowd.oracle.judgments_drawn": per_query(drawn),
        "crowd.oracle.draw_utilization": count("crowd.ledger.charged") / drawn if drawn else 0.0,
        "core.estimators.cells": per_query(count("core.estimators.cells")),
        "crowd.pool.rounds": per_query(rounds),
        "crowd.pool.us_per_round": 1e6 * self_s["crowd.pool"] / rounds if rounds else 0.0,
        "crowd.session.groups": per_query(groups),
        "crowd.session.pairs_per_group": count("crowd.session.pairs") / groups if groups else 0.0,
        "core.cache.calls": per_query(count("core.cache.calls")),
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache.evictions": per_query(evictions),
        "algorithms.bdp.scorer_calls": per_query(count("algorithms.bdp.scorer_calls")),
        "service.scheduler.queue_wait_ms_p50": 1000.0 * statistics.median(waits) if waits else 0.0,
        "telemetry.server.requests_per_query": per_query(requests),
        "datasets.load_s": load_s,
        "trace.layers_sum_ratio": sum(self_s.values()) / query_wall_s,
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s - 1.0,
        "trace.queries_per_s": queries / traced_wall_s,
        "trace.untraced_queries_per_s": queries / untraced_wall_s,
    })
    return metrics


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "root_s")

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [layer, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.root_s = 0.0


class Tracer:
    """Collects per-layer self seconds and counts across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._loaded: set = set()
        self._accepted: dict[str, float] = {}
        self.queue_waits_s: list[float] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, layer, fn, on_exit=None):
        """``fn`` timed as ``layer``; ``on_exit(counts, args, kwargs, result, s)``."""
        state_of = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            outermost = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                state.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    state.root_s += elapsed
            if on_exit is not None and outermost:
                on_exit(state.counts, args, kwargs, result, elapsed)
            return result

        return traced

    def totals(self) -> dict:
        """Merged ``{"self_s", "counts", "root_s", "queue_waits_s"}``."""
        self_s: defaultdict[str, float] = defaultdict(float)
        counts: defaultdict[str, float] = defaultdict(float)
        root_s = 0.0
        with self._lock:
            states = list(self._states)
            waits = list(self.queue_waits_s)
        for state in states:
            for layer, seconds in list(state.self_s.items()):
                self_s[layer] += seconds
            for name, value in list(state.counts.items()):
                counts[name] += value
            root_s += state.root_s
        return {
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": dict(counts),
            "root_s": root_s,
            "queue_waits_s": waits,
        }

    # -- queue wait: from an accepted submit until the query's lane opens.
    # Keyed by tenant: each benchmark client has one query in flight.
    def accepted(self, tenant: str) -> None:
        with self._lock:
            self._accepted[tenant] = time.perf_counter()

    def lane_opened(self, tenant: str) -> None:
        now = time.perf_counter()
        with self._lock:
            accepted = self._accepted.pop(tenant, None)
            if accepted is not None:
                self.queue_waits_s.append(now - accepted)

    def _on_load(self, counts, args, kwargs, result, elapsed) -> None:
        name = args[0] if args else kwargs.get("name")
        with self._lock:
            if name in self._loaded:
                return
            self._loaded.add(name)
        counts["datasets.load_s"] += elapsed


# -- count hooks ----------------------------------------------------------
def _count(name, amount=None):
    def on_exit(counts, args, kwargs, result, elapsed):
        counts[name] += 1 if amount is None else amount(args, kwargs, result)

    return on_exit


def _result_size(args, kwargs, result):
    return result.size


def _charged(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["microtasks"]


def _on_group(counts, args, kwargs, result, elapsed):
    counts["crowd.session.groups"] += 1
    counts["crowd.session.pairs"] += len(result)


def _wrap_members(tracer, cls, names, layer, on_exit=None) -> None:
    """Wrap the named members ``cls`` itself defines (methods, static
    methods, properties); inherited and abstract members are skipped."""
    for name in names:
        member = cls.__dict__.get(name)
        if member is None or getattr(member, "__isabstractmethod__", False):
            continue
        if isinstance(member, staticmethod):
            wrapped = staticmethod(tracer.wrap(layer, member.__func__, on_exit))
        elif isinstance(member, property):
            wrapped = property(
                tracer.wrap(layer, member.fget, on_exit),
                member.fset,
                member.fdel,
                member.__doc__,
            )
        else:
            wrapped = tracer.wrap(layer, member, on_exit)
        setattr(cls, name, wrapped)


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _replace_function(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded repro module,
    so call sites that imported the name directly see the wrapper too."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions with ``tracer``'s timers."""
    import repro.cli  # noqa: F401 - loads the whole package tree
    import repro.algorithms.bdp as bdp
    from repro.core.cache import JudgmentCache
    from repro.core.estimators.base import SequentialTester
    from repro.core.estimators.stein import SteinTester
    from repro.crowd.oracle import JudgmentOracle
    from repro.crowd.pool import RacingPool
    from repro.crowd.session import CrowdSession
    from repro.datasets.registry import load_dataset
    from repro.service import runner
    from repro.service.cache import TenantCache
    from repro.service.scheduler import FairMarketplace, MarketplaceLane
    from repro.service.service import QueryService
    from repro.telemetry import registry
    from repro.telemetry.server import _Handler

    for name in ("run_query", "execute_spec", "session_for"):
        original = getattr(runner, name)
        _replace_function(original, tracer.wrap("algorithms", original))
    _replace_function(
        bdp.score_pairs,
        tracer.wrap("algorithms.bdp.scorer", bdp.score_pairs,
                    _count("algorithms.bdp.scorer_calls")),
    )
    _replace_function(
        load_dataset, tracer.wrap("datasets", load_dataset, tracer._on_load)
    )

    drawn = _count("crowd.oracle.judgments_drawn", _result_size)
    for cls in _subclasses(JudgmentOracle):
        _wrap_members(tracer, cls, ("draw", "draw_pairs"), "crowd.oracle", drawn)
    cells = _count("core.estimators.cells", _result_size)
    for cls in _subclasses(SequentialTester):
        _wrap_members(tracer, cls, ("decision_codes",), "core.estimators", cells)
    _wrap_members(tracer, SteinTester, ("frozen_codes",), "core.estimators", cells)

    _wrap_members(tracer, RacingPool, ("round",), "crowd.pool",
                  _count("crowd.pool.rounds"))
    _wrap_members(tracer, CrowdSession, ("compare_many",), "crowd.session",
                  _on_group)
    _wrap_members(tracer, CrowdSession, ("charge_cost", "charge_many"),
                  "crowd.ledger", _count("crowd.ledger.charged", _charged))
    _wrap_members(tracer, CrowdSession, ("charge_rounds",), "crowd.ledger")

    cache_api = (
        "count", "bag", "bags_for", "append", "append_rows", "defer_rows",
        "settle", "moments", "clear", "pairs", "total_samples", "pair_count",
    )
    for cls in (JudgmentCache, TenantCache):
        _wrap_members(tracer, cls, cache_api, "core.cache",
                      _count("core.cache.calls"))

    for cls, names in (
        (registry.Counter, ("inc", "add")),
        (registry.Gauge, ("set", "inc", "dec")),
        (registry.Histogram, ("observe", "observe_many")),
        (registry.MetricsRegistry, ("counter", "gauge", "histogram", "emit")),
    ):
        _wrap_members(tracer, cls, names, "telemetry.registry")

    _wrap_members(tracer, MarketplaceLane, ("gate",), "service.scheduler")
    _wrap_members(tracer, _Handler, ("do_GET", "do_POST"), "telemetry.server",
                  _count("telemetry.server.requests"))
    submit, open_lane = QueryService.submit, FairMarketplace.open_lane

    def traced_submit(service, spec):
        handle = submit(service, spec)
        tracer.accepted(spec.tenant)
        return handle

    def traced_open_lane(market, tenant):
        tracer.lane_opened(tenant)
        return open_lane(market, tenant)

    QueryService.submit = functools.update_wrapper(traced_submit, submit)
    FairMarketplace.open_lane = functools.update_wrapper(traced_open_lane, open_lane)
