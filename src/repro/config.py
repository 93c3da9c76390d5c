"""Configuration objects shared across the library.

The defaults mirror Table 6 of the paper (bold values):

=========================  =======================================
Parameter                  Default
=========================  =======================================
query size ``k``           10
confidence level ``1-α``   0.98
per-pair budget ``B``      1000 microtasks
minimum workload ``I``     30 microtasks (statistics cold start)
sweet-spot range ``c``     1.5
batch size ``η``           30 microtasks per distribution round
=========================  =======================================
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Literal

from .errors import ConfigError

__all__ = [
    "ComparisonConfig",
    "FaultPolicy",
    "ResiliencePolicy",
    "RetryPolicy",
    "SPRConfig",
    "DEFAULT_COMPARISON",
    "DEFAULT_SPR",
    "comparison_config_from_dict",
    "default_resilience",
]

#: Environment knob installing a default platform fault rate.  When set to a
#: positive float ``r``, every :class:`ComparisonConfig` constructed without
#: an explicit ``resilience`` policy injects timeouts and losses at ``r/2``
#: each — this is how the CI fault-injection leg runs the whole tier-1 suite
#: against an unreliable platform without touching a single test.
FAULT_RATE_ENV = "CROWD_TOPK_FAULT_RATE"

EstimatorName = Literal["student", "stein", "hoeffding", "pac"]

#: Safety cap used in place of an unbounded per-pair budget (``B = ∞`` in
#: Table 3).  One million microtasks on one pair is far beyond anything the
#: paper's settings reach; hitting the cap resolves the pair as a tie.
UNBOUNDED_BUDGET_CAP = 1_000_000


@dataclass(frozen=True)
class FaultPolicy:
    """Seeded platform-failure model applied to outsourced microtasks.

    All rates are per-microtask (per-round for ``outage_rate``) Bernoulli
    probabilities drawn from a *dedicated* fault RNG, never from the
    session's judgment stream — with every rate at 0 the session consumes
    its RNG exactly as a fault-free platform would, so seed-pinned results
    are unchanged.

    Attributes
    ----------
    timeout_rate:
        Probability a posted task produces no answer this round (the
        worker is still typing); the task is re-posted by the retry layer.
    loss_rate:
        Probability a posted task is abandoned outright (answered but
        never delivered); indistinguishable from a timeout to the
        requester, tracked separately in telemetry.
    duplicate_rate:
        Probability a delivered answer is a duplicate submission — the
        platform hands back a copy of the previous answer for the same
        pair instead of an independent judgment.  Duplicates *are*
        consumed and charged (the worker did submit), they just carry no
        fresh information.
    outage_rate:
        Probability an entire distribution round yields nothing (the
        platform is down); no tasks are drawn, no cost is charged, the
        round still burns latency.
    seed:
        Seed of the dedicated fault RNG.  Two sessions with equal fault
        policies observe the identical failure sequence.
    """

    timeout_rate: float = 0.0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    outage_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("timeout_rate", "loss_rate", "duplicate_rate", "outage_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        if self.timeout_rate + self.loss_rate >= 1.0:
            raise ConfigError(
                "timeout_rate + loss_rate must be < 1 so that answers can arrive"
            )

    @property
    def enabled(self) -> bool:
        """Whether any failure mode has a nonzero rate."""
        return (
            self.timeout_rate > 0
            or self.loss_rate > 0
            or self.duplicate_rate > 0
            or self.outage_rate > 0
        )

    @property
    def drop_rate(self) -> float:
        """Probability a posted task never delivers (timeout or loss)."""
        return self.timeout_rate + self.loss_rate

    def with_(self, **changes: object) -> "FaultPolicy":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RetryPolicy:
    """How comparisons keep going when the platform drops their tasks.

    Attributes
    ----------
    max_attempts:
        Consecutive delivery-free rounds a pair tolerates before it
        *degrades to a tie* — the same semantics as exhausting the per-pair
        budget ``B`` (§4): the query proceeds, the pair just carries no
        verdict.  A round that delivers at least one answer resets the
        count.
    backoff_base:
        Rounds to wait after the first failed attempt (0 = repost
        immediately next round).
    backoff_factor:
        Multiplier applied to the wait after each further consecutive
        failure (exponential backoff in rounds).
    backoff_max:
        Upper bound on the backoff wait, in rounds.
    deadline_rounds:
        Per-pair wall-clock deadline measured in pool rounds.  A pair
        still undecided after this many rounds degrades to a tie; ``None``
        disables the deadline.
    """

    max_attempts: int = 8
    backoff_base: int = 1
    backoff_factor: float = 2.0
    backoff_max: int = 16
    deadline_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < self.backoff_base:
            raise ConfigError(
                f"backoff_max ({self.backoff_max}) must be >= backoff_base "
                f"({self.backoff_base})"
            )
        if self.deadline_rounds is not None and self.deadline_rounds < 1:
            raise ConfigError(
                f"deadline_rounds must be >= 1, got {self.deadline_rounds}"
            )

    def backoff_rounds(self, failures: int) -> int:
        """Rounds to wait after ``failures`` consecutive failed attempts."""
        if failures < 1 or self.backoff_base == 0:
            return 0
        wait = self.backoff_base * self.backoff_factor ** (failures - 1)
        return int(min(math.ceil(wait), self.backoff_max))

    def with_(self, **changes: object) -> "RetryPolicy":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything fault-tolerant execution needs, in one frozen bundle.

    Attached to :class:`ComparisonConfig` (``config.resilience``) instead of
    scattering loose keyword arguments over session/pool constructors.

    Attributes
    ----------
    fault:
        The platform failure model.  When any rate is nonzero,
        :class:`~repro.crowd.session.CrowdSession` automatically wraps its
        oracle in a :class:`~repro.crowd.faults.FaultInjector`.
    retry:
        Re-posting / backoff / deadline behaviour, honoured by single
        comparisons and racing groups alike.
    checkpoint_every:
        Default checkpoint cadence in latency rounds for
        :meth:`CrowdSession.enable_checkpoints` (0 keeps checkpointing
        opt-in per call).
    """

    fault: FaultPolicy = field(default_factory=FaultPolicy)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )

    @property
    def active(self) -> bool:
        """Whether faults or a deadline can alter fault-free execution."""
        return self.fault.enabled or self.retry.deadline_rounds is not None

    def with_(self, **changes: object) -> "ResiliencePolicy":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]


def default_resilience() -> ResiliencePolicy:
    """The ambient resilience policy, honouring :data:`FAULT_RATE_ENV`.

    With the environment knob unset (the normal case) this is the all-zero
    policy; setting ``CROWD_TOPK_FAULT_RATE=r`` injects timeouts and losses
    at ``r/2`` each into every config built without an explicit policy.
    """
    raw = os.environ.get(FAULT_RATE_ENV, "").strip()
    if not raw:
        return ResiliencePolicy()
    try:
        rate = float(raw)
    except ValueError:
        raise ConfigError(f"{FAULT_RATE_ENV} must be a float, got {raw!r}") from None
    if rate <= 0:
        return ResiliencePolicy()
    return ResiliencePolicy(
        fault=FaultPolicy(timeout_rate=rate / 2, loss_rate=rate / 2)
    )


@dataclass(frozen=True)
class ComparisonConfig:
    """Parameters of a single comparison process ``COMP(o_i, o_j)``.

    Attributes
    ----------
    confidence:
        The confidence level ``1 - α`` required before a verdict is drawn.
    budget:
        Per-pair budget ``B``: the maximum number of microtasks a single
        comparison may consume before it resolves to a tie.  ``None`` means
        unbounded (capped at :data:`UNBOUNDED_BUDGET_CAP` for safety).
    min_workload:
        Cold-start minimum ``I``; the stopping rule is not consulted before
        this many samples have been collected (common statistical practice,
        §3.1 of the paper).
    batch_size:
        Microtask distribution batch size ``η`` (§5.5).  Only affects the
        *latency* ledger: a comparison consuming ``w`` samples takes
        ``ceil(w / η)`` rounds.
    estimator:
        Which sequential tester the comparison uses: ``"student"``
        (Algorithm 1), ``"stein"`` (Algorithm 5), ``"hoeffding"`` (the
        binary-judgment baseline of §3.2) or ``"pac"`` (the anytime
        ``(ε, δ)`` rule of Ren, Liu & Shroff; ``δ = α`` and
        ``ε = pac_epsilon``).
    stein_epsilon:
        The small positive ``ε`` of Algorithm 5 keeping the Stein interval
        strictly away from the neutral point.
    pac_epsilon:
        Approximation tolerance of the ``"pac"`` estimator: a declared
        winner may be worse than the loser by at most this much (with
        probability ``1 - α``), which lets near-tie comparisons terminate
        once the anytime confidence radius shrinks under ``ε``.  ``0``
        degenerates to an exact anytime sign test.  Ignored by the other
        estimators.
    resilience:
        Fault/retry/checkpoint behaviour (:class:`ResiliencePolicy`).  The
        default honours the :data:`FAULT_RATE_ENV` environment knob and is
        otherwise the no-fault policy, which leaves execution bit-for-bit
        identical to a platform that never fails.
    """

    confidence: float = 0.98
    budget: int | None = 1000
    min_workload: int = 30
    batch_size: int = 30
    estimator: EstimatorName = "student"
    stein_epsilon: float = 1e-9
    pac_epsilon: float = 0.0
    resilience: ResiliencePolicy = field(default_factory=default_resilience)

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.min_workload < 2:
            raise ConfigError(
                f"min_workload must be >= 2 to estimate a variance, got {self.min_workload}"
            )
        if self.budget is not None and self.budget < self.min_workload:
            raise ConfigError(
                f"budget ({self.budget}) must be >= min_workload ({self.min_workload})"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.estimator not in ("student", "stein", "hoeffding", "pac"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.stein_epsilon <= 0:
            raise ConfigError(f"stein_epsilon must be > 0, got {self.stein_epsilon}")
        if self.pac_epsilon < 0:
            raise ConfigError(f"pac_epsilon must be >= 0, got {self.pac_epsilon}")
        if not isinstance(self.resilience, ResiliencePolicy):
            raise ConfigError(
                "resilience must be a ResiliencePolicy, got "
                f"{type(self.resilience).__name__}"
            )

    @property
    def alpha(self) -> float:
        """The error budget ``α`` of a single comparison."""
        return 1.0 - self.confidence

    @property
    def effective_budget(self) -> int:
        """The per-pair budget with the unbounded case capped."""
        return UNBOUNDED_BUDGET_CAP if self.budget is None else self.budget

    def rounds_for(self, workload: int) -> int:
        """Latency rounds needed to distribute ``workload`` microtasks."""
        return math.ceil(workload / self.batch_size)

    def with_(self, **changes: object) -> "ComparisonConfig":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]


def comparison_config_from_dict(data: dict) -> ComparisonConfig:
    """Rebuild a :class:`ComparisonConfig` from its ``dataclasses.asdict``.

    The inverse of ``dataclasses.asdict(config)`` — nested resilience
    dictionaries are revived into their frozen policy classes.  Used by
    checkpoint restore, where the config rides inside the checkpoint so a
    resumed query runs under the exact settings of the original one, and
    by service spec documents.  An unknown key raises
    :class:`~repro.errors.ConfigError` naming it; the one exception is
    the ``"racing"`` group engine that documents written while the engine
    was selectable carry, which is dropped.
    """
    payload = {
        key: value
        for key, value in data.items()
        if (key, value) != ("group_engine", "racing")
    }
    resilience = payload.get("resilience")
    if isinstance(resilience, dict):
        nested = dict(resilience)
        fault = nested.get("fault")
        if isinstance(fault, dict):
            nested["fault"] = _revive(FaultPolicy, fault)
        retry = nested.get("retry")
        if isinstance(retry, dict):
            nested["retry"] = _revive(RetryPolicy, retry)
        payload["resilience"] = _revive(ResiliencePolicy, nested)
    return _revive(ComparisonConfig, payload)


def _revive(cls: type, data: dict):
    """``cls(**data)``, raising :class:`ConfigError` on unknown keys."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields: {unknown}")
    return cls(**data)


@dataclass(frozen=True)
class SPRConfig:
    """Parameters of the Select-Partition-Rank framework (§5).

    Attributes
    ----------
    comparison:
        The per-comparison configuration used throughout the query.
    sweet_spot:
        The constant ``c > 1`` bounding the sweet spot
        ``{o*_k, …, o*_{⌊ck⌋}}`` that reference selection targets.
    max_reference_changes:
        Upper bound on how many times partitioning may swap in a better
        reference (Table 4 sweeps 0..16; 2-4 is the paper's sweet spot).
    selection_budget_factor:
        Reference selection solves problem (2) subject to
        ``m(x-1) + C(bubble, m) <= factor * N`` so that sampling never
        dominates the ``O(N)`` partitioning cost.
    selection_comparison_budget:
        Per-pair budget ``B`` used *during reference selection only*
        (``None`` = twice the cold-start minimum).  Selection errors only
        affect efficiency, never correctness (§5.4): two sample maxima the
        full budget cannot separate are interchangeable as references, so
        burning ``B`` microtasks to order them buys nothing.  The cap keeps
        the selection phase at its intended ``O(N)``-comparison weight.
    min_items_for_selection:
        Below this many items SPR skips selection/partitioning and sorts
        directly; sampling machinery has no room to pay off on tiny inputs.
    """

    comparison: ComparisonConfig = field(default_factory=ComparisonConfig)
    sweet_spot: float = 1.5
    max_reference_changes: int = 2
    selection_budget_factor: float = 1.0
    selection_comparison_budget: int | None = None
    min_items_for_selection: int = 8

    def __post_init__(self) -> None:
        if self.sweet_spot <= 1.0:
            raise ConfigError(f"sweet_spot c must be > 1, got {self.sweet_spot}")
        if self.max_reference_changes < 0:
            raise ConfigError(
                f"max_reference_changes must be >= 0, got {self.max_reference_changes}"
            )
        if self.selection_budget_factor <= 0:
            raise ConfigError(
                f"selection_budget_factor must be > 0, got {self.selection_budget_factor}"
            )
        if self.min_items_for_selection < 2:
            raise ConfigError(
                f"min_items_for_selection must be >= 2, got {self.min_items_for_selection}"
            )
        if (
            self.selection_comparison_budget is not None
            and self.selection_comparison_budget < self.comparison.min_workload
        ):
            raise ConfigError(
                "selection_comparison_budget must be >= the comparison "
                f"min_workload ({self.comparison.min_workload})"
            )

    def with_(self, **changes: object) -> "SPRConfig":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]


DEFAULT_COMPARISON = ComparisonConfig()
DEFAULT_SPR = SPRConfig()
