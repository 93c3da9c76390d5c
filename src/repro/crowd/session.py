"""Crowd sessions: comparisons + accounting in one handle.

A :class:`CrowdSession` is what every top-k algorithm receives: it bundles
the judgment oracle, the shared judgment cache, the comparison
configuration, a random stream, and the cost/latency ledgers.  Algorithms
never talk to the oracle directly — all spending flows through the session
so that TMC and latency are measured uniformly across methods.
"""

from __future__ import annotations

import copy
import os
from collections import UserDict
from collections.abc import Callable, Iterable
from dataclasses import asdict
from functools import partial

import numpy as np

from ..config import ComparisonConfig, comparison_config_from_dict
from ..core.cache import JudgmentCache
from ..core.comparison import ComparisonRecord, GroupRecords
from ..core.estimators import SequentialTester, make_tester
from ..errors import CrowdTopkError
from ..rng import make_rng
from ..telemetry import MetricsRegistry, Span, get_registry
from .faults import FaultInjector
from .group import plan_group, race_planned
from .ledger import CostLedger, LatencyLedger
from .oracle import JudgmentOracle

__all__ = ["CrowdSession"]

StateProvider = Callable[[], dict]

CompareListener = Callable[["CrowdSession", ComparisonRecord], None]

#: A pre-charge hook: called with the microtask amount about to be charged.
#: Raising aborts the spend (the query service uses this for cancellation,
#: latency SLAs, and fair cross-tenant scheduling).
SpendGate = Callable[[int], None]


def _checkpoint_field(state: dict, path: str | os.PathLike, *keys: str) -> object:
    """``state[keys[0]][keys[1]]...``, or a :class:`CrowdTopkError` naming
    ``path`` and the first field the checkpoint's state document lacks."""
    value: object = state
    for depth, key in enumerate(keys, start=1):
        if not isinstance(value, dict) or key not in value:
            name = ".".join(keys[:depth])
            raise CrowdTopkError(f"{path}: checkpoint state has no field {name!r}")
        value = value[key]
    return value


class ProgressSection(UserDict):
    """One loop's live-progress section, never changed once published.

    A :class:`functools.partial` value is derived: a pure function over
    copies the loop took, called whenever an observer reads it.  The
    query's thread pays only for the copies; the costly part (BDP's
    ranking loss, a racing pool's tallies) runs in the reader's thread.
    """

    def __init__(self, fields: dict) -> None:
        self.data = fields  # the loop hands over a fresh dict: no copy

    def __getitem__(self, key: str) -> object:
        value = self.data[key]
        return value() if isinstance(value, partial) else value


class _LiveProgress:
    """One query's live progress, shared by a session and its forks: only
    the query's thread writes it, and observers read only ``snapshot``, the
    tuple of immutable inputs :meth:`CrowdSession._publish` replaces whole
    (``sections`` too is replaced, never changed, so a snapshot may hold it).
    """

    def __init__(self) -> None:
        self.degraded_ties = self.checkpoints = 0
        self.sections: dict[str, ProgressSection] = {}
        self.snapshot: tuple = ()


class CrowdSession:
    """One query's worth of crowdsourcing state.

    Parameters
    ----------
    oracle:
        The simulated crowd answering microtasks.
    config:
        The comparison process configuration (confidence, budget ``B``,
        cold start ``I``, batch size ``η``, estimator).
    seed:
        Seed / generator for the session's random stream.
    max_total_cost:
        Optional hard ceiling on the session's total monetary cost;
        crossing it raises :class:`~repro.errors.BudgetExhaustedError`.
        Per-pair budgets are handled by the comparison process itself and
        never raise.
    telemetry:
        Optional per-session metrics registry.  When omitted the session
        reports into the process-wide registry *at call time*, so
        :func:`repro.telemetry.use_registry` scopes correctly.
    """

    def __init__(
        self,
        oracle: JudgmentOracle,
        config: ComparisonConfig | None = None,
        seed: int | None | np.random.Generator = None,
        max_total_cost: int | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ComparisonConfig()
        self.oracle = self._wrap_oracle(oracle, self.config)
        self.rng = make_rng(seed)
        self.cache = JudgmentCache()
        self.cost = CostLedger(ceiling=max_total_cost)
        self.latency = LatencyLedger()
        self._telemetry = telemetry
        self._compare_listeners: list[CompareListener] = []
        #: This query's open telemetry spans, outermost first: the
        #: registry pushes a span opened with this session and pops it on
        #: close, in whichever thread runs the query.
        self.open_spans: list[Span] = []
        self._instrument_cache: tuple | None = None
        self._racing_cache: tuple | None = None
        self._counter_cache: tuple | None = None
        self._state_providers: dict[str, StateProvider] = {}
        self._live = _LiveProgress()
        self._checkpoint_path: str | os.PathLike | None = None
        self._checkpoint_every: int = 0
        self._last_checkpoint_rounds: int = 0
        self._spend_gate: SpendGate | None = None
        self.restored_state: dict | None = None
        self._racing_kit(self.config)  # rejects an estimator the oracle cannot serve
        self._publish()

    @staticmethod
    def _wrap_oracle(
        oracle: JudgmentOracle, config: ComparisonConfig
    ) -> JudgmentOracle:
        """Wrap the oracle in a fault injector when the config demands one."""
        fault = config.resilience.fault
        if fault.enabled and not isinstance(oracle, FaultInjector):
            return FaultInjector(oracle, fault)
        return oracle

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def telemetry(self) -> MetricsRegistry:
        """The registry this session reports into (never None)."""
        return self._telemetry if self._telemetry is not None else get_registry()

    def _instruments(self) -> tuple:
        """The hot-path metric handles, re-bound when the registry changes."""
        registry = self.telemetry
        cached = self._instrument_cache
        if cached is None or cached[0] is not registry:
            cached = (
                registry,
                registry.counter("crowd_comparisons_total"),
                registry.counter("crowd_microtasks_total"),
                registry.counter("crowd_cache_hits_total"),
                registry.counter("crowd_budget_ties_total"),
                registry.histogram("crowd_comparison_workload"),
                registry.counter("crowd_groups_total"),
            )
            self._instrument_cache = cached
        return cached

    def _counter_handles(self, registry: MetricsRegistry) -> dict:
        """Counter handles by name and labels in ``registry``, shared by
        the session's racing pools; each pool adds a handle the first time
        it uses one, so creation still happens on first use."""
        cached = self._counter_cache
        if cached is None or cached[0] is not registry:
            cached = self._counter_cache = (registry, {})
        return cached[1]

    def _racing_kit(
        self, config: ComparisonConfig
    ) -> tuple[SequentialTester, FaultInjector | None]:
        """The stopping-rule tester for ``config`` and the fault injector
        (``None`` unless the platform injects faults), which every racing
        pool of the session shares: pools use the tester's vectorized
        rule only, never its streaming state."""
        cached = self._racing_cache
        oracle = self.oracle
        if cached is None or cached[0] is not config or cached[1] is not oracle:
            injector = (
                oracle
                if isinstance(oracle, FaultInjector) and oracle.enabled
                else None
            )
            tester = make_tester(config, oracle.value_range)
            cached = self._racing_cache = (config, oracle, tester, injector)
        return cached[2], cached[3]

    def add_compare_listener(self, listener: CompareListener) -> None:
        """Subscribe to every :meth:`compare` record (idempotent).

        Listeners fire after both ledgers are charged, in attachment
        order.  Adding an already-subscribed listener is a no-op, so
        double attachment never double-counts.
        """
        if listener not in self._compare_listeners:
            self._compare_listeners.append(listener)

    def remove_compare_listener(self, listener: CompareListener) -> None:
        """Unsubscribe a compare listener (no-op when absent)."""
        if listener in self._compare_listeners:
            self._compare_listeners.remove(listener)

    # ------------------------------------------------------------------
    # live progress (read by the observatory's /queries endpoint)
    # ------------------------------------------------------------------
    def _publish(self) -> None:
        """Swap in a fresh progress snapshot (the query's thread only)."""
        live = self._live
        cost = self.cost
        live.snapshot = (
            tuple(self.open_spans),
            cost.microtasks,
            cost.ceiling,
            self.latency.rounds,
            cost.comparisons,
            live.degraded_ties,
            live.checkpoints,
            live.sections,
        )

    def publish_progress(self, key: str, fields: dict | None) -> None:
        """Publish (``None``: withdraw) section ``key`` of the progress, at
        an algorithm loop's round boundary (see :class:`ProgressSection`)."""
        sections = dict(self._live.sections)
        if fields is None:
            sections.pop(key, None)
        else:
            sections[key] = ProgressSection(fields)
        self._live.sections = sections
        self._publish()

    def count_degraded_ties(self, reason: str, ties: int = 1) -> None:
        """Count ``ties`` comparisons the resilience policy degraded to a tie,
        in ``crowd_degraded_ties_total{reason}`` and in this query's tally."""
        self.telemetry.counter("crowd_degraded_ties_total", reason=reason).add(ties)
        self._live.degraded_ties += ties

    def progress(self) -> dict:
        """This query's latest progress snapshot, as a fresh dict.

        The ledger view (cost spent vs. cap, rounds, comparisons), the
        open spans (the current phase), this query's degraded ties and
        checkpoints, and the sections its loops published.  Any thread
        may call it: it only reads what the query's thread published.
        """
        (spans, cost, cap, rounds, comparisons, degraded, checkpoints,
         sections) = self._live.snapshot
        names = [span.name for span in spans]
        return {
            "phase": names[-1] if names else None,
            "open_spans": names,
            "cost": cost,
            "budget_cap": cap,
            "budget_remaining": None if cap is None else max(cap - cost, 0),
            "rounds": rounds,
            "comparisons": comparisons,
            "degraded_ties": degraded,
            "checkpoints": checkpoints,
            **sections,
        }

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def compare(self, i: int, j: int) -> ComparisonRecord:
        """Run ``COMP(o_i, o_j)`` (§3.1, Algorithm 1), charging both ledgers.

        A single comparison is a one-pair group: it replays the cache,
        then buys one batch of ``η`` per round until a verdict, the budget
        tie, or the resilience policy's degraded tie (see
        :meth:`compare_many`).
        """
        return self.compare_many(((i, j),))[0]

    def compare_many(self, pairs: Iterable[tuple[int, int]]) -> GroupRecords:
        """Run a parallel comparison group (§5.5), charging both ledgers.

        The whole group advances through one vectorized
        :class:`~repro.crowd.pool.RacingPool` — one oracle call and one
        stopping-rule evaluation per lockstep round, or per block of
        rounds raced ahead, and no per-pair Python loop.  It is charged only the microtasks its pairs consume and
        billed the ``max`` of its members' rounds; see
        docs/performance.md.  The records come back as the columns of a
        :class:`~repro.core.comparison.GroupRecords`, in input order.
        """
        group = plan_group(pairs)  # rejects self-pairs before the ledgers see them
        count = len(group.lefts)
        if not count:
            return race_planned(self, group)[0]  # empty columns, nothing charged
        _, comparisons, _, cache_hits, ties, workload, groups = self._instruments()
        groups.inc()
        self.cost.begin_comparisons(count)
        records, tally = race_planned(self, group)
        # One batched update per instrument for the whole group.  The
        # pool already counted its own cache replays and raced budget
        # ties; count only what it could not see — repeated pairs inside
        # the group and ties decided from the cache.
        comparisons.add(count)
        workload.observe_many(tally.workloads)
        if tally.replay_hits:
            cache_hits.add(tally.replay_hits)
        if tally.cached_ties:
            ties.add(tally.cached_ties)
        self.latency.add(tally.rounds)
        self._publish()
        if self._compare_listeners:
            for record in records:
                for listener in self._compare_listeners:
                    listener(self, record)
        return records

    def moments(self, i: int, j: int) -> tuple[int, float, float]:
        """``(n, mean, variance)`` of the cached bag for ``(i, j)``."""
        return self.cache.moments(i, j)

    def use_cache(self, cache: JudgmentCache) -> None:
        """Swap the session onto ``cache``.

        The query service uses this to point a fresh per-query session at
        its tenant's shared cache namespace before the query runs.  Only
        safe before (or between) comparisons — an in-flight racing pool
        keeps views into the old cache's bags.
        """
        self.cache = cache

    # ------------------------------------------------------------------
    # low-level accounting for racing pools and custom schedules
    # ------------------------------------------------------------------
    def set_spend_gate(self, gate: SpendGate | None) -> None:
        """Install (or clear) the pre-charge spend gate.

        The gate is called with the microtask amount about to be charged,
        *before* the cost ledger sees it — once per bulk charge
        (:meth:`charge_cost` / :meth:`charge_many`), i.e. once per
        spending round.  Raising from the gate
        aborts the spend and propagates to the algorithm; the query
        service uses this for cancellation, latency SLA enforcement, and
        deficit-round-robin microtask arbitration across tenants.  A
        ``None`` gate (the default) keeps the hot path a single attribute
        check.
        """
        self._spend_gate = gate

    def charge_cost(self, microtasks: int) -> None:
        """Charge raw microtask cost: :meth:`charge_many` without rounds."""
        self.charge_many(microtasks)

    def charge_rounds(self, rounds: int) -> None:
        """Charge raw latency rounds."""
        self.latency.add(rounds)
        self._publish()

    def charge_many(self, microtasks: int, *, rounds: int = 0) -> None:
        """Charge a whole round's spending in one call.

        Equivalent to :meth:`charge_cost` followed by
        :meth:`charge_rounds` — cost first, so a
        :class:`~repro.errors.BudgetExhaustedError` from the ceiling
        check leaves the latency ledger untouched exactly as the split
        calls would — but racing pools make one accounting call per
        round instead of two, and the round publishes one progress
        snapshot.
        """
        if self._spend_gate is not None:
            self._spend_gate(microtasks)
        self._instruments()[2].inc(microtasks)
        self.cost.charge(microtasks)
        if rounds:
            self.latency.add(rounds)
        self._publish()

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def register_state_provider(self, key: str, provider: StateProvider) -> bool:
        """Install the query-state provider for ``key``.

        A provider is a zero-argument callable returning a
        JSON-serializable dict describing in-flight query state (e.g. the
        SPR partitioning loop).  Returns ``False`` when another provider
        already owns ``key`` — nested invocations (e.g. SPR's recursive
        blow-up queries) must then run *without* checkpointing, since only
        the outermost loop's state makes a resumable document.
        """
        if key in self._state_providers:
            return False
        self._state_providers[key] = provider
        return True

    def unregister_state_provider(self, key: str) -> None:
        """Remove the provider for ``key`` (no-op when absent)."""
        self._state_providers.pop(key, None)

    def enable_checkpoints(
        self, path: str | os.PathLike, every: int | None = None
    ) -> None:
        """Turn on periodic checkpoints to ``path``.

        ``every`` is the cadence in *latency rounds* between automatic
        :meth:`maybe_checkpoint` writes (default: the config's
        ``resilience.checkpoint_every``, or every round when that is 0).
        """
        if every is None:
            every = self.config.resilience.checkpoint_every or 1
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self._checkpoint_path = path
        self._checkpoint_every = every
        self._last_checkpoint_rounds = self.latency.rounds

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if enabled and the cadence has elapsed.

        Called by resumable loops (SPR partitioning) at their safe points;
        cheap when checkpointing is off or the cadence has not elapsed.
        """
        if self._checkpoint_path is None:
            return False
        elapsed = self.latency.rounds - self._last_checkpoint_rounds
        if elapsed < self._checkpoint_every:
            return False
        self.checkpoint(self._checkpoint_path)
        return True

    def checkpoint_state(self) -> dict:
        """The session's full JSON-serializable state document.

        Captures the comparison config, the judgment RNG state, the fault
        RNG state (when a fault injector wraps the oracle), both ledgers,
        and every registered query-state provider's document under
        ``query.<key>``.  The judgment cache is *not* in the document — it
        rides alongside as raw arrays (see
        :func:`repro.persistence.save_checkpoint`).
        """
        injector = self.oracle if isinstance(self.oracle, FaultInjector) else None
        return {
            "config": asdict(self.config),
            "rng_state": self.rng.bit_generator.state,
            "fault_rng_state": (
                injector.fault_rng.bit_generator.state
                if injector is not None
                else None
            ),
            "cost": {
                "microtasks": self.cost.microtasks,
                "comparisons": self.cost.comparisons,
                "ceiling": self.cost.ceiling,
            },
            "latency": {"rounds": self.latency.rounds},
            "query": {
                key: provider() for key, provider in self._state_providers.items()
            },
        }

    def checkpoint(self, path: str | os.PathLike | None = None) -> None:
        """Atomically persist the session to ``path`` (write-temp + rename).

        ``path`` defaults to the one given to :meth:`enable_checkpoints`.
        """
        from ..persistence import save_checkpoint  # deferred: persistence is optional here

        if path is None:
            path = self._checkpoint_path
        if path is None:
            raise ValueError(
                "no checkpoint path: pass one or call enable_checkpoints first"
            )
        save_checkpoint(self.checkpoint_state(), self.cache, path)
        self._last_checkpoint_rounds = self.latency.rounds
        self._live.checkpoints += 1
        self._publish()
        telemetry = self.telemetry
        telemetry.counter("crowd_checkpoints_total").inc()
        telemetry.emit(
            "checkpoint",
            path=str(path),
            cost=self.cost.microtasks,
            rounds=self.latency.rounds,
        )

    @classmethod
    def restore(
        cls,
        path: str | os.PathLike,
        oracle: JudgmentOracle,
        telemetry: MetricsRegistry | None = None,
    ) -> "CrowdSession":
        """Revive a session from a checkpoint written by :meth:`checkpoint`.

        ``oracle`` is the *base* oracle (checkpoints never serialize the
        crowd itself); the fault injector is re-wrapped from the persisted
        config and both RNGs are restored exactly, so the resumed session
        consumes randomness bit for bit where the original left off.  The
        in-flight query state is left in :attr:`restored_state` for the
        resuming algorithm (see ``resume_spr_topk``).
        """
        from ..persistence import load_checkpoint

        state, cache = load_checkpoint(path)
        field = partial(_checkpoint_field, state, path)
        config = comparison_config_from_dict(field("config"))
        session = cls(
            oracle,
            config,
            seed=None,
            max_total_cost=field("cost", "ceiling"),
            telemetry=telemetry,
        )
        session.rng.bit_generator.state = field("rng_state")
        injector = (
            session.oracle if isinstance(session.oracle, FaultInjector) else None
        )
        fault_rng_state = field("fault_rng_state")
        if injector is not None and fault_rng_state is not None:
            injector.fault_rng.bit_generator.state = fault_rng_state
        session.cache = cache
        session.cost.microtasks = field("cost", "microtasks")
        session.cost.comparisons = field("cost", "comparisons")
        session.latency.rounds = field("latency", "rounds")
        session.restored_state = state
        session._publish()
        return session

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    @property
    def total_cost(self) -> int:
        """Total monetary cost so far (microtasks)."""
        return self.cost.microtasks

    @property
    def total_rounds(self) -> int:
        """Total latency so far (batch rounds)."""
        return self.latency.rounds

    def fork(
        self, oracle: JudgmentOracle | None = None, **config_changes: object
    ) -> "CrowdSession":
        """A session sharing this one's rng and ledgers with a tweaked setup.

        Used by algorithms that mix judgment regimes — e.g. PBR races
        *binary* votes under Hoeffding intervals, Hybrid grades before it
        ranks — while keeping a single bill.  The judgment cache is shared
        unless ``oracle`` is replaced (bags from different judgment models
        must not mix; a fresh cache is installed in that case).
        """
        # A fork shares the query: its rng, ledgers, registry, open spans,
        # progress snapshot and spend gate (SPR's selection fork must
        # honour the parent's SLAs).  Recorders attach per session, and
        # checkpoints are the root session's job.
        clone = copy.copy(self)
        clone.config = self.config.with_(**config_changes) if config_changes else self.config
        # A replaced oracle gets its own fault wrap (the parent's injector
        # belongs to the parent's judgment model); an inherited oracle
        # keeps the parent's injector and hence its fault stream.
        if oracle is not None:
            clone.oracle = self._wrap_oracle(oracle, clone.config)
            clone.cache = JudgmentCache()
        clone._racing_kit(clone.config)  # rejects an estimator the oracle cannot serve
        clone._compare_listeners = []
        clone._state_providers = {}
        clone._checkpoint_path = None
        clone.restored_state = None
        return clone

    def spent(self) -> tuple[int, int]:
        """``(cost, rounds)`` snapshot, handy for phase-level accounting."""
        return self.cost.microtasks, self.latency.rounds
