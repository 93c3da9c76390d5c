"""The comparison process COMP: verdicts, caching, budgets, accounting."""

import math

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.cache import JudgmentCache
from repro.core.outcomes import Outcome
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from tests.conftest import make_latent_session


class TestVerdicts:
    def test_clear_pair_resolves_left(self, five_item_session):
        record = five_item_session.compare(4, 0)
        assert record.outcome is Outcome.LEFT
        assert record.winner == 4
        assert record.loser == 0

    def test_orientation_flip(self, five_item_session):
        record = five_item_session.compare(0, 4)
        assert record.outcome is Outcome.RIGHT
        assert record.winner == 4

    def test_tie_on_identical_items(self):
        session = make_latent_session([1.0, 1.0], sigma=1.0, budget=50)
        record = session.compare(0, 1)
        assert record.outcome is Outcome.TIE
        assert record.winner is None
        assert record.loser is None
        assert record.workload == 50  # budget exhausted

    def test_workload_respects_min(self):
        session = make_latent_session([0.0, 10.0], sigma=0.1, min_workload=30)
        record = session.compare(0, 1)
        assert record.workload == 30

    def test_mean_reflects_score_gap(self):
        session = make_latent_session([0.0, 3.0], sigma=0.5, min_workload=30)
        record = session.compare(1, 0)
        assert record.mean == pytest.approx(3.0, abs=0.5)


class TestCaching:
    def test_second_comparison_is_free(self, five_item_session):
        first = five_item_session.compare(3, 1)
        second = five_item_session.compare(3, 1)
        assert first.cost > 0
        assert second.cost == 0
        assert second.from_cache
        assert second.outcome is first.outcome
        assert second.workload <= first.workload

    def test_flipped_comparison_is_also_free(self, five_item_session):
        five_item_session.compare(3, 1)
        flipped = five_item_session.compare(1, 3)
        assert flipped.cost == 0
        assert flipped.outcome is Outcome.RIGHT

    def test_cache_shared_across_comparators(self):
        # Two sessions on one cache: the second replays the first's bag.
        oracle = LatentScoreOracle(np.array([0.0, 5.0]), GaussianNoise(0.5))
        cache = JudgmentCache()
        config = ComparisonConfig(min_workload=2, budget=100)
        sessions = [CrowdSession(oracle, config, seed=seed) for seed in (0, 1)]
        for session in sessions:
            session.use_cache(cache)
        first = sessions[0].compare(1, 0)
        second = sessions[1].compare(1, 0)
        assert first.cost > 0
        assert second.cost == 0
        assert second.from_cache
        assert sessions[1].total_cost == 0

    def test_larger_budget_extends_cached_tie(self):
        # A pair tying at budget 50 can be retried at budget 5000: the
        # stored 50 samples replay for free and sampling resumes.
        session = make_latent_session([0.0, 0.3], sigma=2.0, budget=50, seed=3)
        tie = session.compare(1, 0)
        assert tie.outcome is Outcome.TIE
        bigger = session.fork(budget=5000)
        retry = bigger.compare(1, 0)
        assert retry.workload >= 50
        # whatever the outcome, no sample was re-purchased
        assert len(session.cache.bag(0, 1)) == retry.workload or retry.outcome is Outcome.TIE


class TestAccounting:
    def test_cost_equals_consumed_workload(self):
        session = make_latent_session([0.0, 1.0], sigma=1.0, seed=5)
        record = session.compare(1, 0)
        assert record.cost == record.workload
        assert session.total_cost == record.cost

    @pytest.mark.faultfree  # dropped tasks add rounds without adding cost
    def test_rounds_match_batched_workload(self):
        session = make_latent_session(
            [0.0, 0.8], sigma=1.5, seed=2, batch_size=10, min_workload=10
        )
        record = session.compare(1, 0)
        assert record.rounds == math.ceil(record.cost / 10)

    def test_cached_comparison_costs_zero_rounds(self, five_item_session):
        five_item_session.compare(2, 0)
        rounds_before = five_item_session.total_rounds
        five_item_session.compare(2, 0)
        assert five_item_session.total_rounds == rounds_before

    def test_workload_never_exceeds_budget(self):
        session = make_latent_session([0.0, 0.05], sigma=2.0, budget=70)
        record = session.compare(1, 0)
        assert record.workload <= 70


class TestHoeffdingComparator:
    def test_requires_bounded_oracle(self):
        # Rejected when the session is built, before anything is bought.
        oracle = LatentScoreOracle(np.array([0.0, 1.0]))  # unbounded
        with pytest.raises(ValueError):
            CrowdSession(oracle, ComparisonConfig(estimator="hoeffding"))

    def test_fork_into_hoeffding_requires_bounded_oracle(self):
        session = make_latent_session([0.0, 1.0])
        with pytest.raises(ValueError):
            session.fork(estimator="hoeffding")
