"""Empirical guarantee checking — measured error vs. the declared ``α``.

The stopping rules of §4 promise that every *decided* verdict is wrong
with probability at most ``α``, and §5.4 turns that into a lower bound of
``(1 − α) / c`` on SPR's expected precision.  This module measures both
claims the way the PAC-ranking literature evaluates correctness: many
seeded replications, an empirical failure rate, and a Wilson score
interval around it.  A check **passes** when the interval's upper bound
stays at or below the declared maximum failure rate — a much stronger
statement than "the point estimate looked fine".

Five checks ship by default:

``comparison``
    One COMP verdict per replication on a two-item instance with a
    randomized latent gap; a failure is a decided verdict whose winner
    contradicts the gap's sign.  Budget ties are excluded from the error
    count but kept in the trial count (the tester returned no verdict, so
    it cannot have returned a *wrong* one), which only makes the check
    stricter.
``partition``
    Algorithm 4 against the true rank-(k+1) item as reference; every
    decided winner/loser assignment is a Bernoulli trial and a failure is
    an assignment contradicting the latent order.
``spr_recall``
    Full SPR queries; each of the ``k`` result slots is a trial and a
    failure is a slot not occupied by a true top-k item.  The guarantee
    line is the §5.4 bound: the miss rate may not exceed
    ``1 − (1 − α)/c``.
``bdp_recall``
    Full BDP queries (:mod:`repro.algorithms.bdp`) on gap instances
    whose top-k/rest boundary is separated by at least ``2σ``; each of
    the ``k`` result slots is a trial and a failure is a missed slot.
    With the verdict-backed boundary refinement a miss requires an
    actually-wrong ``1 − α`` comparison verdict, so the guarantee line
    is ``α``.
``pac_comparison``
    One verdict from the anytime :class:`~repro.core.estimators.PACTester`
    (ε = 0.25, δ = α) on a randomized two-item instance; a failure is a
    decided verdict contradicting a latent gap larger than ε.  Gaps
    within the ε-tolerance are free — any decision is PAC-admissible —
    and budget ties are excluded from the error count as above.

Replications fan out over a process pool exactly like
:mod:`repro.experiments.parallel`: per-replication generators are
pre-spawned from the suite seed so results are **bit-for-bit identical**
for any ``--jobs``, and each worker runs under a private
:class:`~repro.telemetry.MetricsRegistry` that the parent merges back in
replication order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from ..algorithms.bdp import bdp_topk
from ..config import ComparisonConfig, SPRConfig
from ..core.outcomes import Outcome
from ..core.stopping import ConfidenceStopping
from ..core.spr import expected_precision_lower_bound, partition, spr_topk
from ..core.topk import top_k_indices
from ..crowd.oracle import LatentScoreOracle
from ..crowd.session import CrowdSession
from ..crowd.workers import GaussianNoise
from ..errors import ConfigError
from ..experiments.parallel import _pool_context, resolve_jobs
from ..rng import make_rng, spawn_many
from ..telemetry import MetricsRegistry, get_registry, use_registry

__all__ = [
    "GuaranteeCheck",
    "GuaranteeReport",
    "run_guarantee_suite",
    "wilson_interval",
    "DEFAULT_ALPHAS",
    "DEFAULT_CHECKS",
    "DEFAULT_REPLICATIONS",
]

#: The α grid of the acceptance criterion.
DEFAULT_ALPHAS: tuple[float, ...] = (0.05, 0.1)
DEFAULT_CHECKS: tuple[str, ...] = (
    "comparison",
    "partition",
    "spr_recall",
    "bdp_recall",
    "pac_comparison",
)
DEFAULT_REPLICATIONS = 200

#: z for the two-sided 95% Wilson interval reported around failure rates.
_WILSON_Z = 1.959963984540054

# Scenario knobs, tuned so the checks finish in seconds yet leave real
# statistical headroom below α (see docs/testing.md for the calibration).
_COMP_GAP = (0.15, 1.0)  # |Δs| range; below 0.15 ties dominate the budget
_COMP_SIGMA = 1.0
_COMP_CONFIG = dict(budget=400, min_workload=10, batch_size=20)
_PARTITION_N, _PARTITION_K = 20, 4
_SCORE_SPREAD = 3.0
_SPR_N, _SPR_K, _SPR_C = 30, 5, 1.5
_PHASE_CONFIG = dict(budget=300, min_workload=10, batch_size=20)
_BDP_N, _BDP_K = 15, 3
_BDP_GAP = 2.0  # enforced top-k boundary separation, in latent-score units
_BDP_CONFIG = dict(budget=400, min_workload=10, batch_size=20)
_PAC_EPSILON = 0.25
_PAC_GAP_MAX = 0.6  # straddles ε so both regimes of the guarantee are hit
_PAC_CONFIG = dict(budget=1000, min_workload=10, batch_size=20)


def wilson_interval(
    failures: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion ``failures/trials``.

    Unlike the Wald interval it never collapses to a zero-width interval
    at 0 observed failures, which is exactly the regime guarantee checks
    live in.  ``confidence`` other than 0.95 falls back to the normal
    quantile :func:`scipy.special.ndtri` for the critical value.
    """
    if trials <= 0:
        raise ConfigError(f"trials must be positive, got {trials}")
    if not 0 <= failures <= trials:
        raise ConfigError(f"failures must be in [0, {trials}], got {failures}")
    if confidence == 0.95:
        z = _WILSON_Z
    else:
        if not 0.0 < confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
        z = float(ndtri(0.5 + confidence / 2.0))
    p = failures / trials
    z2n = z * z / trials
    center = p + z2n / 2.0
    margin = z * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    denom = 1.0 + z2n
    return max(0.0, (center - margin) / denom), min(1.0, (center + margin) / denom)


@dataclass(frozen=True)
class GuaranteeCheck:
    """One (check × α) cell of the guarantee suite.

    ``trials`` counts Bernoulli opportunities to fail (verdicts,
    assignments, or result slots depending on the check), ``failures``
    the observed guarantee violations.  ``passed`` is
    ``wilson_high <= max_failure_rate``.
    """

    name: str
    alpha: float
    replications: int
    trials: int
    failures: int
    empirical_rate: float
    wilson_low: float
    wilson_high: float
    max_failure_rate: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "alpha": self.alpha,
            "replications": self.replications,
            "trials": self.trials,
            "failures": self.failures,
            "empirical_rate": self.empirical_rate,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "max_failure_rate": self.max_failure_rate,
            "passed": self.passed,
        }
        out.update(self.extras)
        return out


@dataclass(frozen=True)
class GuaranteeReport:
    """The full suite outcome: one :class:`GuaranteeCheck` per cell."""

    checks: tuple[GuaranteeCheck, ...]
    seed: int
    replications: int

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": "guarantees",
            "seed": self.seed,
            "replications": self.replications,
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
        }

    def to_text(self) -> str:
        header = (
            f"{'check':<12} {'alpha':>6} {'trials':>7} {'fail':>5} "
            f"{'rate':>8} {'wilson95':>17} {'bound':>7}  verdict"
        )
        lines = [header, "-" * len(header)]
        for c in self.checks:
            interval = f"[{c.wilson_low:.4f}, {c.wilson_high:.4f}]"
            lines.append(
                f"{c.name:<12} {c.alpha:>6.3f} {c.trials:>7d} {c.failures:>5d} "
                f"{c.empirical_rate:>8.4f} {interval:>17} "
                f"{c.max_failure_rate:>7.4f}  {'PASS' if c.passed else 'FAIL'}"
            )
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({self.replications} replications/check, seed={self.seed})"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-replication scenarios (module level: pool workers must pickle them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ReplicationTask:
    """One work unit: a check cell, its index, and its pre-spawned RNG."""

    check: str
    alpha: float
    index: int
    rng: np.random.Generator


@dataclass(frozen=True)
class _ReplicationOutcome:
    trials: int
    failures: int
    cost: int
    ties: int


def _comparison_replication(
    alpha: float, rng: np.random.Generator
) -> _ReplicationOutcome:
    """One COMP verdict on a randomized two-item instance."""
    gap = rng.uniform(*_COMP_GAP) * (1.0 if rng.random() < 0.5 else -1.0)
    oracle = LatentScoreOracle(np.array([gap, 0.0]), GaussianNoise(_COMP_SIGMA))
    config = ComparisonConfig(confidence=1.0 - alpha, **_COMP_CONFIG)
    session = CrowdSession(oracle, config, seed=rng)
    record = session.compare(0, 1)
    if record.outcome is Outcome.TIE:
        return _ReplicationOutcome(1, 0, session.total_cost, 1)
    correct = 0 if gap > 0 else 1
    return _ReplicationOutcome(
        1, int(record.winner != correct), session.total_cost, 0
    )


def _partition_replication(
    alpha: float, rng: np.random.Generator
) -> _ReplicationOutcome:
    """Algorithm 4 against the true rank-(k+1) reference.

    Per §5.2 each decided assignment is one COMP verdict against the
    reference, so decided assignments are the Bernoulli trials α bounds.
    Deferred (tie) items carry no verdict and are skipped; reference
    changes are disabled so the latent order of *this* reference is the
    ground truth for every pair.
    """
    scores = rng.normal(0.0, _SCORE_SPREAD, _PARTITION_N)
    reference = int(top_k_indices(scores, _PARTITION_K + 1)[-1])  # true rank k+1
    oracle = LatentScoreOracle(scores, GaussianNoise(1.0))
    config = ComparisonConfig(confidence=1.0 - alpha, **_PHASE_CONFIG)
    session = CrowdSession(oracle, config, seed=rng)
    result = partition(
        session,
        list(range(_PARTITION_N)),
        _PARTITION_K,
        reference,
        max_reference_changes=0,
    )
    ref_score = scores[reference]
    trials = failures = 0
    for item in result.winners:
        if item == reference:
            continue
        trials += 1
        failures += int(scores[item] <= ref_score)
    for item in result.losers:
        if item == reference:
            continue
        trials += 1
        failures += int(scores[item] > ref_score)
    return _ReplicationOutcome(trials, failures, session.total_cost, len(result.ties))


def _spr_replication(alpha: float, rng: np.random.Generator) -> _ReplicationOutcome:
    """One full SPR query; each result slot is a recall trial."""
    scores = rng.normal(0.0, _SCORE_SPREAD, _SPR_N)
    true_topk = {int(i) for i in top_k_indices(scores, _SPR_K)}
    oracle = LatentScoreOracle(scores, GaussianNoise(1.0))
    config = ComparisonConfig(confidence=1.0 - alpha, **_PHASE_CONFIG)
    session = CrowdSession(oracle, config, seed=rng)
    result = spr_topk(
        session, list(range(_SPR_N)), _SPR_K, SPRConfig(sweet_spot=_SPR_C)
    )
    hits = len(set(result.topk) & true_topk)
    return _ReplicationOutcome(_SPR_K, _SPR_K - hits, session.total_cost, 0)


def _bdp_replication(alpha: float, rng: np.random.Generator) -> _ReplicationOutcome:
    """One full BDP query on a gap instance; each result slot is a trial.

    The top-k/rest boundary is widened to at least ``_BDP_GAP`` latent
    units so a missed slot implies an actually-wrong comparison verdict
    (the refinement ranks the boundary by direct verdicts), putting the
    miss rate under the per-comparison ``α`` bound.
    """
    scores = rng.normal(0.0, _SCORE_SPREAD, _BDP_N)
    order = np.argsort(scores)[::-1]
    boundary_gap = scores[order[_BDP_K - 1]] - scores[order[_BDP_K]]
    if boundary_gap < _BDP_GAP:
        scores[order[:_BDP_K]] += _BDP_GAP - boundary_gap
    true_topk = {int(i) for i in order[:_BDP_K]}
    oracle = LatentScoreOracle(scores, GaussianNoise(1.0))
    config = ComparisonConfig(confidence=1.0 - alpha, **_BDP_CONFIG)
    session = CrowdSession(oracle, config, seed=rng)
    result = bdp_topk(
        session,
        list(range(_BDP_N)),
        _BDP_K,
        stopping=ConfidenceStopping(alpha=alpha),
    )
    hits = len(set(result.topk) & true_topk)
    ties = int(result.extras["ties"])
    return _ReplicationOutcome(_BDP_K, _BDP_K - hits, session.total_cost, ties)


def _pac_comparison_replication(
    alpha: float, rng: np.random.Generator
) -> _ReplicationOutcome:
    """One PAC-tester verdict; a failure needs a gap beyond ε.

    The latent gap straddles ε so both regimes are exercised: within the
    tolerance every decision is admissible (trial counted, failure
    impossible); beyond it a wrong decided winner is a PAC violation,
    which the (ε, δ=α) guarantee bounds by α.
    """
    gap = rng.uniform(0.0, _PAC_GAP_MAX) * (1.0 if rng.random() < 0.5 else -1.0)
    oracle = LatentScoreOracle(np.array([gap, 0.0]), GaussianNoise(_COMP_SIGMA))
    config = ComparisonConfig(
        confidence=1.0 - alpha,
        estimator="pac",
        pac_epsilon=_PAC_EPSILON,
        **_PAC_CONFIG,
    )
    session = CrowdSession(oracle, config, seed=rng)
    record = session.compare(0, 1)
    if record.outcome is Outcome.TIE:
        return _ReplicationOutcome(1, 0, session.total_cost, 1)
    if abs(gap) <= _PAC_EPSILON:
        return _ReplicationOutcome(1, 0, session.total_cost, 0)
    correct = 0 if gap > 0 else 1
    return _ReplicationOutcome(
        1, int(record.winner != correct), session.total_cost, 0
    )


_SCENARIOS = {
    "comparison": _comparison_replication,
    "partition": _partition_replication,
    "spr_recall": _spr_replication,
    "bdp_recall": _bdp_replication,
    "pac_comparison": _pac_comparison_replication,
}


def _max_failure_rate(check: str, alpha: float) -> float:
    """The guarantee line a check's Wilson upper bound must stay under."""
    if check == "spr_recall":
        return 1.0 - expected_precision_lower_bound(alpha, _SPR_C)
    return alpha


def _run_replication(task: _ReplicationTask) -> tuple[_ReplicationOutcome, MetricsRegistry]:
    """Execute one replication under a private registry (pool worker)."""
    with use_registry(MetricsRegistry()) as registry:
        outcome = _SCENARIOS[task.check](task.alpha, task.rng)
    return outcome, registry


def _run_replication_serial(task: _ReplicationTask) -> _ReplicationOutcome:
    """Run one replication in-process under the ambient registry."""
    return _SCENARIOS[task.check](task.alpha, task.rng)


def _build_tasks(
    checks: tuple[str, ...],
    alphas: tuple[float, ...],
    replications: int,
    seed: int,
) -> list[_ReplicationTask]:
    """Expand the (check × α) grid with pre-spawned per-replication RNGs.

    Each cell spawns its own streams from the suite seed, so adding or
    reordering cells never perturbs another cell's draws — the same
    cell always reproduces bit for bit, serial or pooled.
    """
    tasks: list[_ReplicationTask] = []
    for check in checks:
        if check not in _SCENARIOS:
            raise ConfigError(
                f"unknown guarantee check {check!r}; "
                f"expected one of {sorted(_SCENARIOS)}"
            )
        for alpha in alphas:
            if not 0.0 < alpha < 1.0:
                raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
            root = make_rng(seed)
            rngs = spawn_many(root, replications)
            tasks.extend(
                _ReplicationTask(check, alpha, index, rngs[index])
                for index in range(replications)
            )
    return tasks


def run_guarantee_suite(
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    replications: int = DEFAULT_REPLICATIONS,
    n_jobs: int | None = None,
    seed: int = 0,
    checks: tuple[str, ...] = DEFAULT_CHECKS,
) -> GuaranteeReport:
    """Run the empirical guarantee suite over the (check × α) grid.

    Results are independent of ``n_jobs`` (``None`` = ambient default,
    ``0`` = one worker per CPU).  Telemetry lands in the ambient registry:
    ``validation_replications_total{check=...}``,
    ``validation_guarantee_failures_total{check=...}``, one
    ``validation.guarantees`` span, and the merged per-replication crowd
    counters.
    """
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    alphas = tuple(float(a) for a in alphas)
    checks = tuple(checks)
    tasks = _build_tasks(checks, alphas, replications, seed)
    jobs = resolve_jobs(n_jobs)
    telemetry = get_registry()

    with telemetry.span(
        "validation.guarantees",
        replications=replications,
        cells=len(checks) * len(alphas),
        jobs=jobs,
    ):
        if jobs == 1:
            outcomes = [_run_replication_serial(task) for task in tasks]
        else:
            workers = min(jobs, len(tasks))
            chunksize = max(1, len(tasks) // (workers * 4))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context()
            ) as pool:
                results = list(pool.map(_run_replication, tasks, chunksize=chunksize))
            outcomes = []
            for outcome, registry in results:
                telemetry.merge(registry)
                outcomes.append(outcome)

        cells: dict[tuple[str, float], list[_ReplicationOutcome]] = {}
        for task, outcome in zip(tasks, outcomes):
            cells.setdefault((task.check, task.alpha), []).append(outcome)

        report_checks = []
        for check in checks:
            for alpha in alphas:
                cell = cells[(check, alpha)]
                trials = sum(o.trials for o in cell)
                failures = sum(o.failures for o in cell)
                ties = sum(o.ties for o in cell)
                mean_cost = sum(o.cost for o in cell) / len(cell)
                low, high = wilson_interval(failures, trials)
                bound = _max_failure_rate(check, alpha)
                telemetry.counter(
                    "validation_replications_total", check=check
                ).inc(len(cell))
                telemetry.counter(
                    "validation_guarantee_failures_total", check=check
                ).inc(failures)
                report_checks.append(
                    GuaranteeCheck(
                        name=check,
                        alpha=alpha,
                        replications=len(cell),
                        trials=trials,
                        failures=failures,
                        empirical_rate=failures / trials,
                        wilson_low=low,
                        wilson_high=high,
                        max_failure_rate=bound,
                        passed=high <= bound,
                        extras={"ties": ties, "mean_cost": mean_cost},
                    )
                )

    report = GuaranteeReport(
        checks=tuple(report_checks), seed=seed, replications=replications
    )
    if not report.passed:
        telemetry.counter("validation_suite_failures_total", suite="guarantees").inc()
    return report
