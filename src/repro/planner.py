"""Query planning: from requirements to a configuration.

The paper analyses a *given* configuration (confidence, budget).  A
deployment faces the inverse problem: "I need the top-10 of 500 items at
~90% precision and I have 150 dollars — what do I configure?"  The
planner answers it from the paper's own machinery:

* the §5.4 precision lower bound ``(1 − α)/c`` picks the confidence level
  a precision target requires;
* the Lemma-1 / Appendix-D cost model (`repro.stats.planning`) predicts
  what an SPR query costs under candidate per-pair budgets, given a rough
  description of the score distribution and crowd noise;
* the Appendix-B unit cost converts to dollars.

The output is a recommendation, not a guarantee — the predicted cost is
the Lemma-1 floor scaled by SPR's measured overhead factor (the
EXPERIMENTS.md Figure-12 ratio), and real datasets deviate.  The planner
says so explicitly in its rationale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ComparisonConfig
from .errors import ConfigError
from .extensions.economics import MICROTASK_UNIT_COST_USD, dollars_for
from .rng import make_rng
from .stats.planning import predict_infimum_cost

__all__ = ["QueryPlan", "plan_query", "SPR_OVERHEAD_FACTOR"]

#: SPR's measured TMC over the Lemma-1 infimum at the paper defaults
#: (EXPERIMENTS.md, Figure 12: 2.1-2.5x across datasets; we plan with the
#: pessimistic end).
SPR_OVERHEAD_FACTOR = 2.5

#: Candidate per-pair budgets the planner searches over (Table 6's sweep).
_CANDIDATE_BUDGETS = (100, 200, 500, 1000, 2000, 4000)


@dataclass(frozen=True)
class QueryPlan:
    """A recommended configuration and its predicted economics."""

    config: ComparisonConfig
    expected_precision_floor: float
    predicted_microtasks: float
    predicted_dollars: float
    feasible: bool
    rationale: str

    def summary(self) -> str:
        status = "FEASIBLE" if self.feasible else "INFEASIBLE"
        return (
            f"[{status}] 1-a={self.config.confidence:.2f}, "
            f"B={self.config.budget}: ~{self.predicted_microtasks:,.0f} "
            f"microtasks ≈ US${self.predicted_dollars:,.2f}; precision "
            f"floor {self.expected_precision_floor:.2f}"
        )


def plan_query(
    n_items: int,
    k: int,
    *,
    target_precision: float = 0.6,
    dollar_budget: float | None = None,
    score_spread: float = 1.0,
    noise_sigma: float = 1.0,
    sweet_spot: float = 1.5,
    unit_cost_usd: float = MICROTASK_UNIT_COST_USD,
    min_workload: int = 30,
    seed: int = 0,
) -> QueryPlan:
    """Recommend a :class:`ComparisonConfig` for a top-k deployment.

    Parameters
    ----------
    n_items, k:
        The query.
    target_precision:
        Desired lower bound on expected result precision; §5.4 maps it to
        the confidence level via ``(1 − α)/c ≥ target``.
    dollar_budget:
        Optional spending cap; the planner picks the largest per-pair
        budget that fits (larger ``B`` = fewer ties = better accuracy,
        Figure 13) and reports infeasibility when even the smallest
        candidate exceeds the cap.
    score_spread, noise_sigma:
        A rough prior over the instance: hidden scores ~ N(0, spread²),
        single-judgment noise σ.  Only their ratio matters.
    """
    if not 1 <= k < n_items:
        raise ConfigError(f"k must be in [1, {n_items - 1}], got {k}")
    if not 0.0 < target_precision < 1.0:
        raise ConfigError(
            f"target_precision must be in (0, 1), got {target_precision}"
        )
    if sweet_spot <= 1.0:
        raise ConfigError(f"sweet_spot must be > 1, got {sweet_spot}")
    if score_spread <= 0 or noise_sigma <= 0:
        raise ConfigError("score_spread and noise_sigma must be positive")

    # §5.4: (1 - alpha)/c >= target  →  alpha <= 1 - c·target.
    max_alpha = 1.0 - sweet_spot * target_precision
    if max_alpha <= 0.0:
        raise ConfigError(
            f"target precision {target_precision} is unreachable at "
            f"c={sweet_spot}: the §5.4 floor (1-α)/c cannot exceed "
            f"{1.0 / sweet_spot:.2f}"
        )
    # Snap to the paper's confidence grid: the *lowest* level meeting the
    # precision target — the objective is minimal cost subject to quality.
    grid = (0.80, 0.85, 0.90, 0.95, 0.98, 0.99)
    confidence = min(
        (level for level in grid if (1.0 - level) <= max_alpha),
        default=0.99,
    )
    alpha = 1.0 - confidence

    # Representative instance: one fixed sample of hidden scores.
    rng = make_rng(seed)
    scores = rng.normal(0.0, score_spread, size=n_items)
    # A judgment of a pair has noise sqrt(2)·sigma when each side carries
    # sigma; callers give the per-judgment sigma directly.
    chosen = None
    for budget in sorted(_CANDIDATE_BUDGETS, reverse=True):
        if budget < min_workload:
            continue
        floor = predict_infimum_cost(
            scores, k, noise_sigma, alpha, min_workload=min_workload,
            budget=budget,
        )
        microtasks = SPR_OVERHEAD_FACTOR * floor
        dollars = dollars_for(int(round(microtasks)), unit_cost_usd)
        if dollar_budget is None or dollars <= dollar_budget:
            chosen = (budget, microtasks, dollars, True)
            break
    if chosen is None:
        budget = min(_CANDIDATE_BUDGETS)
        floor = predict_infimum_cost(
            scores, k, noise_sigma, alpha, min_workload=min_workload,
            budget=budget,
        )
        microtasks = SPR_OVERHEAD_FACTOR * floor
        chosen = (
            budget,
            microtasks,
            dollars_for(int(round(microtasks)), unit_cost_usd),
            False,
        )

    budget, microtasks, dollars, feasible = chosen
    config = ComparisonConfig(
        confidence=confidence, budget=budget, min_workload=min_workload
    )
    rationale = (
        f"§5.4 needs α ≤ {max_alpha:.3f} for precision ≥ {target_precision} "
        f"at c={sweet_spot} → 1-α = {confidence}. Cost = Lemma-1 floor on a "
        f"N(0, {score_spread}²) instance with σ={noise_sigma} judgments, "
        f"× {SPR_OVERHEAD_FACTOR} SPR overhead (Figure-12 measured ratio). "
        + (
            "Largest per-pair budget within the dollar cap chosen."
            if feasible and dollar_budget is not None
            else "No dollar cap given; the default-grade budget chosen."
            if feasible
            else "Even the smallest candidate budget exceeds the cap — "
            "reduce N/k, accept lower precision, or raise the cap."
        )
    )
    return QueryPlan(
        config=config,
        expected_precision_floor=(1.0 - alpha) / sweet_spot,
        predicted_microtasks=float(microtasks),
        predicted_dollars=float(dollars),
        feasible=feasible,
        rationale=rationale,
    )
