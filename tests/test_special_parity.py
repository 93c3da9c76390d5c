"""The query path's ``scipy.special`` calls against ``scipy.stats``, bit for bit.

The library evaluates each distribution function through the
``scipy.special`` function that ``scipy.stats`` itself calls, so a query
never loads ``scipy.stats`` (see ``tests/test_import_budget.py``).  These
tests hold every replacement to the ``scipy.stats`` call it replaced with
exact equality, never a tolerance: a single flipped bit in the Lemma-2
probability can change the plan of problem (2), and with it every draw
after reference selection.  The identities are

* ``binom.sf(h − 1, m, q) == betainc(h, m − h + 1, q)`` (Boost ``ibeta``),
* ``norm.cdf(x, μ, σ) == ndtr((x − μ)/σ)``,
* ``norm.ppf(p) == ndtri(p)``,

and ``t.ppf(p, df) == stdtrit(df, p)``, pinned in
``tests/test_stats_tdist.py``.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from repro.datasets.imdb import _SUPPORT, _discretized_normal_pmf
from repro.stats.median_cost import bubble_median_comparisons
from repro.stats.reference import (
    SamplingPlan,
    hit_probability,
    median_in_sweet_spot_probability,
    solve_sampling_plan,
)
from repro.validation import guarantees
from repro.validation.guarantees import wilson_interval


def _reference_plan(n_items, k, c, comparison_budget):
    """``solve_sampling_plan`` as it was written over ``scipy.stats.binom``."""
    budget = comparison_budget
    j_good = k - 1
    j_sweet = min(int(math.floor(c * k)), n_items)
    log_miss_good = math.log1p(-j_good / n_items) if j_good > 0 else None
    log_miss_sweet = math.log1p(-j_sweet / n_items) if j_sweet < n_items else None
    best = None
    m = 1
    while True:
        median_cost = bubble_median_comparisons(m)
        if median_cost > budget and m > 1:
            break
        remaining = budget - median_cost
        x_max = remaining // m + 1 if remaining >= 0 else 1
        x_max = min(max(x_max, 1), 4 * n_items)
        xs = np.arange(1, x_max + 1, dtype=np.float64)
        p = np.zeros_like(xs) if log_miss_good is None else 1.0 - np.exp(xs * log_miss_good)
        q = np.ones_like(xs) if log_miss_sweet is None else 1.0 - np.exp(xs * log_miss_sweet)
        h = (m + 1) // 2
        prob = sps.binom.sf(h - 1, m, q) - sps.binom.sf(h - 1, m, p)
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
    return best


def _plan_grid():
    """``(n_items, k, c, budget)``: every small SPR subproblem, the golden
    and benchmark sizes, and the non-default sweet spots and budgets."""
    grid = {
        (n, k, 1.5, n)
        for n in range(2, 131)
        for k in (1, 2, 3, 4, 5, 10)
        if k < n
    }
    grid |= {(1225, k, 1.5, 1225) for k in range(1, 21)}  # spr_imdb: k = 10
    grid |= {(n, 10, 1.5, n) for n in (200, 333, 500, 537, 612, 1000)}
    grid |= {
        (n, k, c, int(factor * n))
        for n in (20, 60, 150, 1225)
        for k in (1, 3, 10)
        for c in (1.2, 2.0, 3.0)
        for factor in (0.5, 2.0)
    }
    return sorted(grid)


def test_sampling_plans_match_scipy_stats_binom():
    mismatched = []
    for n_items, k, c, budget in _plan_grid():
        expected = _reference_plan(n_items, k, c, budget)
        if solve_sampling_plan(n_items, k, c, budget) != expected:
            mismatched.append((n_items, k, c, budget))
    assert mismatched == []


def test_sweet_spot_probability_matches_scipy_stats_binom():
    rng = np.random.default_rng(20170514)
    for _ in range(2000):
        n_items = int(rng.integers(2, 2000))
        k = int(rng.integers(1, n_items))
        c = float(rng.uniform(1.01, 4.0))
        x = int(rng.integers(1, 4 * n_items))
        m = int(rng.integers(0, 60)) * 2 + 1
        p = hit_probability(n_items, k - 1, x)
        q = hit_probability(n_items, int(math.floor(c * k)), x)
        h = (m + 1) // 2
        expected = float(sps.binom.sf(h - 1, m, q) - sps.binom.sf(h - 1, m, p))
        assert median_in_sweet_spot_probability(n_items, k, c, x, m) == expected


def test_imdb_taste_model_matches_scipy_stats_norm():
    rng = np.random.default_rng(6)
    edges = np.concatenate(([-np.inf], (_SUPPORT[:-1] + _SUPPORT[1:]) / 2.0, [np.inf]))
    # The generator's own ranges (quality clipped to [1.5, 9.7], dispersion
    # in [1.2, 2.2]) and well beyond them.
    for mean, std in zip(rng.uniform(-5.0, 15.0, 5000), rng.uniform(0.05, 6.0, 5000)):
        cdf = sps.norm.cdf(edges, loc=mean, scale=std)
        pmf = np.diff(cdf)
        expected = pmf / pmf.sum()
        got = _discretized_normal_pmf(mean, std, _SUPPORT)
        assert got.tobytes() == expected.tobytes(), (mean, std)


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.99, 0.999, 0.123456])
def test_wilson_critical_value_matches_scipy_stats_norm(confidence, monkeypatch):
    cases = [(0, 10), (3, 40), (17, 17), (250, 10_000)]
    got = [wilson_interval(failures, trials, confidence) for failures, trials in cases]
    # The 0.95 path reads its z from _WILSON_Z: give it scipy.stats' value.
    monkeypatch.setattr(guarantees, "_WILSON_Z", float(sps.norm.ppf(0.5 + confidence / 2.0)))
    assert got == [wilson_interval(failures, trials, 0.95) for failures, trials in cases]


def test_wilson_default_critical_value_is_the_normal_quantile():
    assert guarantees._WILSON_Z == float(sps.norm.ppf(0.975))
