"""The comparison process ``COMP(o_i, o_j)`` (§3.1, Algorithms 1 and 5).

A :class:`Comparator` progressively buys preference judgments for a pair
until its sequential tester reaches a verdict at confidence ``1 - α`` or the
per-pair budget ``B`` runs out (tie).  Judgments are drawn through a
judgment oracle and every purchased sample is stored in a
:class:`~repro.core.cache.JudgmentCache`, so later comparisons of the same
pair replay the stored bag for free before buying anything new.

Microtasks are published in batches of ``η`` (the latency model of §5.5)
but the stopping rule is evaluated after *every* sample inside a batch, so
the monetary cost is identical to the strictly sequential Algorithm 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import ComparisonConfig
from ..telemetry import get_registry
from .cache import JudgmentCache
from .estimators import make_tester
from .outcomes import Outcome

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from ..crowd.oracle import JudgmentOracle
    from ..crowd.session import CrowdSession
    from ..telemetry import MetricsRegistry

__all__ = ["Comparator", "ComparisonRecord"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ComparisonRecord:
    """Everything a comparison process concluded and consumed.

    Attributes
    ----------
    left, right:
        The compared item ids, in the orientation of the call.
    outcome:
        :class:`Outcome` of the process (``LEFT``/``RIGHT``/``TIE``).
    workload:
        Total samples backing the verdict, ``w_{i,j}`` — including replayed
        cached judgments.
    cost:
        *New* microtasks purchased by this call (0 when fully cached).
    rounds:
        Batch-distribution rounds this call occupied the crowd for.
    mean, std:
        Sample moments of the judgments backing the verdict
        (std is NaN below 2 samples).
    """

    left: int
    right: int
    outcome: Outcome
    workload: int
    cost: int
    rounds: int
    mean: float
    std: float

    @property
    def winner(self) -> int | None:
        """The preferred item id, or ``None`` on a tie."""
        if self.outcome is Outcome.LEFT:
            return self.left
        if self.outcome is Outcome.RIGHT:
            return self.right
        return None

    @property
    def loser(self) -> int | None:
        """The rejected item id, or ``None`` on a tie."""
        if self.outcome is Outcome.LEFT:
            return self.right
        if self.outcome is Outcome.RIGHT:
            return self.left
        return None

    @property
    def from_cache(self) -> bool:
        """Whether the verdict came entirely from replayed judgments."""
        return self.cost == 0 and self.workload > 0

    @classmethod
    def from_race(
        cls,
        left: int,
        right: int,
        code: int,
        *,
        workload: int,
        cost: int,
        rounds: int,
        mean: float,
        std: float,
    ) -> "ComparisonRecord":
        """Build a record from a racing pool's per-pair end state.

        ``code`` is the pool's decision code (``+1``/``-1``/``0``) in the
        orientation of ``(left, right)``; the remaining fields carry the
        same meaning as in a sequentially produced record.
        """
        return cls(
            left=int(left),
            right=int(right),
            outcome=Outcome.from_code(code),
            workload=int(workload),
            cost=int(cost),
            rounds=int(rounds),
            mean=mean if workload else math.nan,
            std=std,
        )

    @classmethod
    def from_arrays(
        cls,
        lefts: np.ndarray,
        rights: np.ndarray,
        codes: np.ndarray,
        *,
        workloads: np.ndarray,
        costs: np.ndarray,
        rounds: np.ndarray,
        means: np.ndarray,
        stds: np.ndarray,
    ) -> "list[ComparisonRecord]":
        """Build a whole round's records in one pass over parallel arrays.

        Element ``r`` of every input describes one record; the result is
        field-for-field identical (order included) to calling
        :meth:`from_race` per element — the per-record arithmetic
        (orientation flips, moment math, NaN substitution for empty
        workloads) is expected to have happened in array form already,
        which is the point: the only remaining per-record work is
        constructing the frozen dataclass itself.
        """
        nan = math.nan
        left_outcome, right_outcome, tie = Outcome.LEFT, Outcome.RIGHT, Outcome.TIE
        return [
            cls(
                left=left,
                right=right,
                outcome=(
                    tie if code == 0 else left_outcome if code > 0 else right_outcome
                ),
                workload=workload,
                cost=cost,
                rounds=spent_rounds,
                mean=mean if workload else nan,
                std=std,
            )
            for left, right, code, workload, cost, spent_rounds, mean, std in zip(
                lefts.tolist(),
                rights.tolist(),
                codes.tolist(),
                workloads.tolist(),
                costs.tolist(),
                rounds.tolist(),
                means.tolist(),
                stds.tolist(),
            )
        ]


class Comparator:
    """Runs comparison processes against an oracle with a shared cache."""

    def __init__(
        self,
        oracle: "JudgmentOracle",
        config: ComparisonConfig | None = None,
        cache: JudgmentCache | None = None,
    ) -> None:
        self.oracle = oracle
        self.config = config if config is not None else ComparisonConfig()
        self.cache = cache if cache is not None else JudgmentCache()
        self._instrument_cache: tuple | None = None
        if self.config.estimator == "hoeffding" and oracle.value_range is None:
            raise ValueError(
                "the hoeffding estimator requires an oracle with bounded support"
            )

    def _judgments_counter(self, registry: "MetricsRegistry"):
        """The hot-path counter handle, re-bound when the registry changes."""
        cached = self._instrument_cache
        if cached is None or cached[0] is not registry:
            cached = (registry, registry.counter("oracle_judgments_total"))
            self._instrument_cache = cached
        return cached[1]

    def compare(
        self,
        i: int,
        j: int,
        rng: np.random.Generator,
        session: "CrowdSession | None" = None,
    ) -> ComparisonRecord:
        """Run ``COMP(o_i, o_j)``: replay the cache, then buy until a verdict.

        Returns a :class:`ComparisonRecord`; never raises on indecision —
        budget exhaustion is the tie outcome, as in the paper.  The
        comparison counts into ``session``'s registry and degraded-tie
        tally (without a session, into the ambient registry).

        Against a faulty platform each round consumes what arrives, as a
        racing pool does: lost tasks are never consumed, charged, or
        cached; delivery-free rounds go through the
        :class:`~repro.config.RetryPolicy`, and ``max_attempts`` of them in
        a row or a passed ``deadline_rounds`` degrade the pair to a tie.
        """
        config = self.config
        tester = make_tester(config, self.oracle.value_range)
        budget = config.effective_budget

        decision: int | None = None
        cached = self.cache.bag(i, j)
        if cached.size:
            _, decision = tester.scan(cached[:budget])
            if decision is not None and logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "cache hit: COMP(%d, %d) decided from %d stored judgments",
                    i, j, tester.n,
                )

        retry = config.resilience.retry
        deadline = retry.deadline_rounds
        registry = session.telemetry if session is not None else get_registry()
        judgments_drawn = self._judgments_counter(registry)
        injector = self._active_injector()
        cost = 0
        rounds = 0
        failures = 0
        degraded = None
        while decision is None and tester.n < budget:
            if deadline is not None and rounds >= deadline:
                degraded = "deadline"
                break
            chunk = min(config.batch_size, budget - tester.n)
            if injector is None:
                values, drawn = self.oracle.draw(i, j, chunk, rng), chunk
            else:
                values, drawn = injector.deliver(i, j, chunk, rng)
            if drawn:
                judgments_drawn.inc(drawn)
            rounds += 1
            if values.size == 0:
                failures += 1
                if failures >= retry.max_attempts:
                    degraded = "retries"
                    break
                registry.counter("crowd_retries_total").inc()
                rounds += retry.backoff_rounds(failures)  # idle wait
                continue
            failures = 0
            consumed, decision = tester.scan(values[: budget - tester.n])
            self.cache.append(i, j, values[:consumed])
            cost += consumed
        if degraded is not None and session is not None:
            session.count_degraded_ties(degraded)
        elif degraded is not None:
            registry.counter("crowd_degraded_ties_total", reason=degraded).inc()
        if decision is None and logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "budget tie: COMP(%d, %d) undecided after %d samples (B=%d)",
                i, j, tester.n, budget,
            )

        state = tester.state
        std = state.std if state.n >= 2 else math.nan
        return ComparisonRecord(
            left=int(i),
            right=int(j),
            outcome=Outcome.from_code(decision),
            workload=state.n,
            cost=cost,
            rounds=rounds,
            mean=state.mean if state.n else math.nan,
            std=std,
        )

    def _active_injector(self):
        """The session's fault injector, when faults are actually enabled."""
        from ..crowd.faults import FaultInjector  # deferred: crowd imports core

        oracle = self.oracle
        if isinstance(oracle, FaultInjector) and oracle.enabled:
            return oracle
        return None

    def moments(self, i: int, j: int) -> tuple[int, float, float]:
        """``(n, mean, variance)`` of the stored bag for ``(i, j)``."""
        return self.cache.moments(i, j)
