"""Worker heterogeneity: workforce, routing oracle, quality estimation."""

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.spr import spr_topk
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workforce import (
    AnswerRecord,
    Workforce,
    WorkforceOracle,
    WorkerProfile,
    estimate_worker_accuracy,
)
from repro.crowd.workers import GaussianNoise
from repro.errors import OracleError


def _base_oracle(scores=(0.0, 1.0, 2.0, 3.0), sigma=0.5):
    return LatentScoreOracle(np.asarray(scores, dtype=float), GaussianNoise(sigma))


class TestWorkerProfile:
    def test_validation(self):
        with pytest.raises(OracleError):
            WorkerProfile(worker_id=0, reliability=1.5)
        with pytest.raises(OracleError):
            WorkerProfile(worker_id=0, noise_scale=-1.0)


class TestWorkforce:
    def test_generate_is_deterministic(self):
        a = Workforce.generate(20, seed=3, spammer_rate=0.2)
        b = Workforce.generate(20, seed=3, spammer_rate=0.2)
        assert [p.reliability for p in a.profiles] == [
            p.reliability for p in b.profiles
        ]

    def test_spammer_rate_realized(self):
        force = Workforce.generate(500, seed=1, spammer_rate=0.3)
        assert 0.2 < force.spammer_count / 500 < 0.4

    def test_never_all_spammers(self):
        force = Workforce.generate(3, seed=0, spammer_rate=0.999)
        assert force.spammer_count < 3

    def test_without_bans_workers(self):
        force = Workforce.generate(10, seed=0)
        smaller = force.without({0, 1, 2})
        assert len(smaller) == 7
        with pytest.raises(OracleError):
            smaller[0]

    def test_validation(self):
        with pytest.raises(OracleError):
            Workforce([])
        with pytest.raises(OracleError):
            Workforce(
                [WorkerProfile(worker_id=1), WorkerProfile(worker_id=1)]
            )
        with pytest.raises(OracleError):
            Workforce.generate(0)
        with pytest.raises(OracleError):
            Workforce.generate(5, spammer_rate=1.0)


class TestWorkforceOracle:
    def test_honest_workforce_preserves_sign(self, rng):
        force = Workforce.generate(50, seed=2, spammer_rate=0.0)
        oracle = WorkforceOracle(_base_oracle(), force)
        draws = oracle.draw(3, 0, 3000, rng)
        assert draws.mean() > 0
        assert draws.mean() < 3.0  # reliabilities < 1 shrink the signal

    def test_spammers_add_variance_not_bias(self, rng):
        honest = WorkforceOracle(
            _base_oracle(), Workforce.generate(50, seed=2, spammer_rate=0.0)
        )
        spammy = WorkforceOracle(
            _base_oracle(), Workforce.generate(50, seed=2, spammer_rate=0.4)
        )
        clean = honest.draw(3, 0, 4000, rng)
        noisy = spammy.draw(3, 0, 4000, rng)
        assert noisy.std() > clean.std()
        assert abs(noisy.mean() - clean.mean() * (1 - 0.4)) < 0.4  # sign intact

    def test_answers_accounted(self, rng):
        force = Workforce.generate(5, seed=2)
        oracle = WorkforceOracle(_base_oracle(), force)
        oracle.draw(1, 0, 100, rng)
        oracle.draw_pairs(np.array([2, 3]), np.array([0, 1]), 50, rng)
        assert sum(oracle.answers_by_worker.values()) == 200

    def test_log_records_provenance(self, rng):
        force = Workforce.generate(5, seed=2)
        oracle = WorkforceOracle(_base_oracle(), force, keep_log=True)
        oracle.draw(2, 1, 10, rng)
        assert len(oracle.log) == 10
        assert all(isinstance(r, AnswerRecord) for r in oracle.log)
        assert all(r.left == 2 and r.right == 1 for r in oracle.log)

    def test_validation(self):
        force = Workforce.generate(3, seed=0)
        with pytest.raises(OracleError):
            WorkforceOracle(_base_oracle(), force, extra_noise=-1.0)
        with pytest.raises(OracleError):
            WorkforceOracle(_base_oracle(), force, spam_spread=0.0)


class TestEndToEnd:
    def test_spr_absorbs_spammers_with_more_cost(self):
        # Aggregated over seeds: a single run can come out cheaper with
        # spammers by luck of the judgment stream.
        scores = np.linspace(0.0, 10.0, 20)
        costs = {0.0: 0, 0.3: 0}
        hits = 0
        for seed in (7, 8, 9):
            for rate in (0.0, 0.3):
                force = Workforce.generate(40, seed=5, spammer_rate=rate)
                oracle = WorkforceOracle(_base_oracle(scores, sigma=0.8), force)
                session = CrowdSession(
                    oracle,
                    ComparisonConfig(
                        confidence=0.95, budget=2000, min_workload=10, batch_size=10
                    ),
                    seed=seed,
                )
                outcome = spr_topk(session, list(range(20)), 3)
                costs[rate] += session.total_cost
                if rate == 0.3:
                    hits += len(set(outcome.topk) & {19, 18, 17})
        assert costs[0.3] > costs[0.0]  # spammers make the query dearer
        assert hits >= 2 * 3  # but barely less correct


class TestQualityEstimation:
    def test_separates_spammers_from_honest(self, rng):
        force = Workforce(
            [
                WorkerProfile(worker_id=0, reliability=1.0),
                WorkerProfile(worker_id=1, reliability=0.9),
                WorkerProfile(worker_id=2, spammer=True),
            ]
        )
        oracle = WorkforceOracle(
            _base_oracle((0.0, 5.0)), force, keep_log=True
        )
        oracle.draw(1, 0, 600, rng)
        gold = {0: 2, 1: 1}  # item 1 is rank 1
        accuracy = estimate_worker_accuracy(oracle.log, gold)
        assert accuracy[0] > 0.9
        assert accuracy[1] > 0.85
        assert accuracy[2] < 0.75

    def test_min_answers_filters_unseen_workers(self):
        log = [AnswerRecord(worker_id=7, left=0, right=1, value=1.0)]
        assert estimate_worker_accuracy(log, {0: 1, 1: 2}, min_answers=5) == {}

    def test_non_gold_pairs_ignored(self):
        log = [
            AnswerRecord(worker_id=7, left=0, right=9, value=1.0)
            for _ in range(10)
        ]
        assert estimate_worker_accuracy(log, {0: 1, 1: 2}) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_worker_accuracy([], {}, min_answers=0)
