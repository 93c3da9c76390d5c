"""Reference-selection probability math (Eq. 1, Lemma 2, problem (2))."""

import numpy as np
import pytest

from repro import load_dataset
from repro.core.spr.select import select_reference

from repro.stats.reference import (
    SamplingPlan,
    hit_probability,
    median_in_sweet_spot_probability,
    solve_sampling_plan,
)


class TestHitProbability:
    def test_equation_one_closed_form(self):
        # Pr{max of x samples within top-j} = 1 - (1 - j/N)^x
        assert hit_probability(100, 10, 5) == pytest.approx(1 - 0.9**5)

    def test_zero_top_set_is_impossible(self):
        assert hit_probability(100, 0, 10) == 0.0

    def test_full_top_set_is_certain(self):
        assert hit_probability(100, 100, 1) == 1.0

    def test_monotone_in_samples(self):
        probs = [hit_probability(100, 5, x) for x in (1, 2, 5, 20, 100)]
        assert probs == sorted(probs)

    def test_monotone_in_top_set(self):
        probs = [hit_probability(100, j, 10) for j in (1, 5, 20, 50)]
        assert probs == sorted(probs)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            hit_probability(0, 1, 1)
        with pytest.raises(ValueError):
            hit_probability(10, 1, 0)


class TestSweetSpotProbability:
    def test_requires_odd_m(self):
        with pytest.raises(ValueError):
            median_in_sweet_spot_probability(100, 10, 1.5, 5, 4)

    def test_requires_valid_k(self):
        with pytest.raises(ValueError):
            median_in_sweet_spot_probability(100, 0, 1.5, 5, 3)

    def test_requires_c_above_one(self):
        with pytest.raises(ValueError):
            median_in_sweet_spot_probability(100, 10, 1.0, 5, 3)

    def test_probability_in_unit_interval(self):
        p = median_in_sweet_spot_probability(200, 10, 1.5, 11, 13)
        assert 0.0 <= p <= 1.0

    def test_matches_monte_carlo(self, rng):
        n, k, c, x, m = 100, 10, 2.0, 12, 9
        hits = 0
        trials = 20_000
        for _ in range(trials):
            maxima = rng.integers(1, n + 1, size=(m, x)).min(axis=1)
            median = int(np.median(maxima))
            hits += int(k <= median <= int(c * k))
        analytic = median_in_sweet_spot_probability(n, k, c, x, m)
        assert hits / trials == pytest.approx(analytic, abs=0.015)

    def test_k_equals_one_has_no_too_good_risk(self):
        # With k=1 the median can never be "too good".
        p = median_in_sweet_spot_probability(50, 1, 3.0, 30, 7)
        assert p > 0.5


class TestSolveSamplingPlan:
    def test_returns_plan_within_budget(self):
        plan = solve_sampling_plan(200, 10, 1.5)
        assert isinstance(plan, SamplingPlan)
        assert plan.comparisons <= plan.comparison_budget
        assert plan.m % 2 == 1
        assert plan.x >= 1

    def test_probability_matches_direct_evaluation(self):
        plan = solve_sampling_plan(200, 10, 1.5)
        direct = median_in_sweet_spot_probability(200, 10, 1.5, plan.x, plan.m)
        assert plan.probability == pytest.approx(direct, rel=1e-9)

    def test_larger_budget_never_hurts(self):
        tight = solve_sampling_plan(300, 10, 1.5, comparison_budget=100)
        loose = solve_sampling_plan(300, 10, 1.5, comparison_budget=600)
        assert loose.probability >= tight.probability - 1e-12

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            solve_sampling_plan(1, 1, 1.5)
        with pytest.raises(ValueError):
            solve_sampling_plan(100, 100, 1.5)
        with pytest.raises(ValueError):
            solve_sampling_plan(100, 10, 1.5, comparison_budget=0)

    def test_small_n(self):
        plan = solve_sampling_plan(5, 2, 1.5)
        assert plan.comparisons <= 5

    def test_plans_are_memoized(self):
        solve_sampling_plan.cache_clear()
        dataset = load_dataset("jester")
        items = dataset.items.ids.tolist()[:60]
        first = select_reference(dataset.session(seed=1), items, 5)
        hits = solve_sampling_plan.cache_info().hits
        second = select_reference(dataset.session(seed=2), items, 5)
        assert second.plan == first.plan
        assert second.plan is first.plan
        assert solve_sampling_plan.cache_info().hits == hits + 1
