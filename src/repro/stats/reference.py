"""Probability machinery behind reference selection (§5.1).

Three pieces are implemented here:

* Equation (1): the probability that the maximum of ``x`` uniform samples
  (with replacement) falls within the top-``j`` of ``N`` items.
* The Lemma-2 probability that the *median* of ``m`` independent sample
  maxima lands inside the sweet spot ``{o*_k, …, o*_{⌊ck⌋}}``.
* A solver for optimization problem (2): choose integers ``x`` and ``m``
  maximizing that probability subject to the sampling effort
  ``m(x-1) + C(bubble, m)`` staying within a comparison budget.

The Lemma-2 expression is evaluated in the exact order-statistic form
``P(U ≥ h) − P(T ≥ h)`` with ``h = (m+1)/2``: the median is in the sweet
spot iff at least ``h`` maxima reach the top-``⌊ck⌋`` (event on ``U``) but
fewer than ``h`` reach the top-``(k-1)`` (event on ``T``), and
``{T ≥ h} ⊆ {U ≥ h}`` because every top-``(k-1)`` hit is also a
top-``⌊ck⌋`` hit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .median_cost import bubble_median_comparisons

__all__ = [
    "hit_probability",
    "median_in_sweet_spot_probability",
    "solve_sampling_plan",
    "SamplingPlan",
]


def _at_least(h: int, m: int, q):
    """Binomial tail ``P(Bin(m, q) ≥ h) = I_q(h, m − h + 1)``.

    The regularized incomplete beta is what ``scipy.stats.binom.sf(h − 1,
    m, q)`` evaluates (both call Boost's ``ibeta``), so the two agree bit
    for bit; ``tests/test_special_parity.py`` holds them to that.
    """
    return betainc(h, m - h + 1, q)


def hit_probability(n_items: int, top_j: int, x: int) -> float:
    """Equation (1): ``Pr{max of x samples ⪰ o*_j} = 1 - (1 - j/N)^x``.

    ``top_j`` is clamped to ``[0, n_items]``; ``top_j = 0`` means "strictly
    better than the best item", which is impossible (probability 0).
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    j = min(max(top_j, 0), n_items)
    return float(1.0 - (1.0 - j / n_items) ** x)


def median_in_sweet_spot_probability(
    n_items: int, k: int, c: float, x: int, m: int
) -> float:
    """Lemma 2: probability the median of ``m`` sample maxima hits the sweet spot.

    ``m`` must be odd so the median is a single order statistic.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    if k < 1 or k > n_items:
        raise ValueError(f"k must be in [1, {n_items}], got {k}")
    if c <= 1.0:
        raise ValueError(f"sweet-spot constant c must be > 1, got {c}")
    p = hit_probability(n_items, k - 1, x)
    q = hit_probability(n_items, int(math.floor(c * k)), x)
    h = (m + 1) // 2
    return float(_at_least(h, m, q) - _at_least(h, m, p))


@dataclass(frozen=True)
class SamplingPlan:
    """Solution of problem (2): sample sizes and the achieved probability.

    Attributes
    ----------
    x:
        Number of items drawn (with replacement) per sampling procedure.
    m:
        Number of independent sampling procedures (odd).
    probability:
        The Lemma-2 probability that the median of the ``m`` maxima lies in
        the sweet spot.
    comparison_budget:
        The comparison budget the plan was solved under.
    comparisons:
        Upper bound on comparisons the plan consumes:
        ``m (x - 1)`` max-findings plus the partial-bubble median selection.
    """

    x: int
    m: int
    probability: float
    comparison_budget: int
    comparisons: int


@functools.lru_cache(maxsize=256)
def solve_sampling_plan(
    n_items: int, k: int, c: float, comparison_budget: int | None = None
) -> SamplingPlan:
    """Solve optimization problem (2) by exact enumeration.

    Maximizes the Lemma-2 probability over odd ``m`` and integer ``x``
    subject to ``m (x - 1) + C(bubble, m) <= comparison_budget`` (default
    budget: ``n_items``, so selection never dominates the ``O(N)``
    partitioning cost).  Ties in probability are broken toward the cheaper
    plan.  Enumeration is cheap: ``m`` ranges over ``O(sqrt(budget))`` odd
    values and ``x`` is swept vectorized per ``m``.

    The plan depends on the arguments alone and is frozen, so solved plans
    are memoized and shared: every SPR query over the same ``(N, k)``
    would otherwise repeat the enumeration (milliseconds at ``N`` ~ 1000).
    """
    if n_items < 2:
        raise ValueError(f"need at least 2 items to sample from, got {n_items}")
    if k < 1 or k >= n_items:
        raise ValueError(f"k must be in [1, {n_items - 1}], got {k}")
    budget = n_items if comparison_budget is None else int(comparison_budget)
    if budget < 1:
        raise ValueError(f"comparison_budget must be >= 1, got {budget}")

    j_good = k - 1
    j_sweet = min(int(math.floor(c * k)), n_items)
    log_miss_good = math.log1p(-j_good / n_items) if j_good > 0 else None
    log_miss_sweet = (
        math.log1p(-j_sweet / n_items) if j_sweet < n_items else None
    )

    best: SamplingPlan | None = None
    m = 1
    while True:
        median_cost = bubble_median_comparisons(m)
        if median_cost > budget and m > 1:
            break
        remaining = budget - median_cost
        x_max = remaining // m + 1 if remaining >= 0 else 1
        x_max = max(x_max, 1)
        # Cap the sweep: beyond x ~ N the hit probabilities saturate.
        x_max = min(x_max, 4 * n_items)
        xs = np.arange(1, x_max + 1, dtype=np.float64)
        if log_miss_good is None:
            p = np.zeros_like(xs)
        else:
            p = 1.0 - np.exp(xs * log_miss_good)
        if log_miss_sweet is None:
            q = np.ones_like(xs)
        else:
            q = 1.0 - np.exp(xs * log_miss_sweet)
        h = (m + 1) // 2
        prob = _at_least(h, m, q) - _at_least(h, m, p)
        idx = int(np.argmax(prob))
        candidate = SamplingPlan(
            x=idx + 1,
            m=m,
            probability=float(prob[idx]),
            comparison_budget=budget,
            comparisons=m * idx + median_cost,
        )
        if (
            best is None
            or candidate.probability > best.probability + 1e-12
            or (
                abs(candidate.probability - best.probability) <= 1e-12
                and candidate.comparisons < best.comparisons
            )
        ):
            best = candidate
        m += 2
    assert best is not None  # m = 1 always yields a candidate
    return best
