"""Robustness under hostile crowds and degenerate setups.

The confidence machinery must stay *correct* (never confidently wrong at a
high rate) when workers are noisy, careless, or uninformative — it may
only get slower or resolve ties.
"""

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.outcomes import Outcome
from repro.core.spr import spr_topk
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import CarelessWorkerNoise
from tests.conftest import make_latent_session


def careless_session(scores, careless_rate, seed=0, **config_kwargs):
    defaults = dict(confidence=0.95, budget=2000, min_workload=10, batch_size=10)
    defaults.update(config_kwargs)
    oracle = LatentScoreOracle(
        np.asarray(scores, dtype=float),
        CarelessWorkerNoise(sigma=1.0, careless_rate=careless_rate, spread=6.0),
    )
    return CrowdSession(oracle, ComparisonConfig(**defaults), seed=seed)


class TestCarelessWorkers:
    def test_contamination_increases_workload_not_errors(self):
        clean_w, dirty_w = [], []
        clean_err = dirty_err = 0
        for seed in range(15):
            clean = careless_session([0.0, 1.0], 0.0, seed=seed)
            record = clean.compare(1, 0)
            clean_w.append(record.workload)
            clean_err += int(record.outcome is Outcome.RIGHT)

            dirty = careless_session([0.0, 1.0], 0.4, seed=seed)
            record = dirty.compare(1, 0)
            dirty_w.append(record.workload)
            dirty_err += int(record.outcome is Outcome.RIGHT)
        assert np.mean(dirty_w) > np.mean(clean_w)
        assert dirty_err <= 1  # confidence keeps confident errors rare

    def test_spr_survives_contamination(self):
        truth = set(range(20, 25))
        hits = 0
        for seed in range(5):
            session = careless_session(np.linspace(0, 12, 25).tolist(), 0.3, seed=seed)
            result = spr_topk(session, list(range(25)), 5)
            hits += len(truth & set(result.topk))
        assert hits / 25 >= 0.7  # mean precision stays high under attack


class TestDegenerateOracles:
    def test_all_items_identical_yields_ties_everywhere(self):
        session = make_latent_session([1.0] * 6, sigma=1.0, budget=60)
        result = spr_topk(session, list(range(6)), 2)
        # any 2 items are a correct answer; the query must still terminate
        assert len(result.topk) == 2

    def test_zero_noise_perfect_workers(self):
        session = make_latent_session([0.0, 1.0, 2.0, 3.0], sigma=0.0)
        result = spr_topk(session, [0, 1, 2, 3], 2)
        assert list(result.topk) == [3, 2]
        # every comparison decides right at the cold-start minimum
        assert session.total_cost <= 3 * 2 * 4

    def test_extreme_noise_respects_budget(self):
        session = make_latent_session([0.0, 0.01], sigma=50.0, budget=100)
        record = session.compare(1, 0)
        assert record.outcome is Outcome.TIE
        assert record.workload == 100

    def test_two_items(self):
        session = make_latent_session([0.0, 5.0], sigma=0.5)
        result = spr_topk(session, [0, 1], 1)
        assert list(result.topk) == [1]


class TestConfidenceContract:
    @pytest.mark.parametrize("confidence", [0.8, 0.95])
    def test_confident_error_rate_within_alpha(self, confidence):
        """Across many decided comparisons of a true-positive pair, the
        wrong-verdict rate must stay within alpha (the §3.1 guarantee)."""
        errors = decided = 0
        for seed in range(120):
            session = make_latent_session(
                [0.0, 0.45], sigma=1.0, seed=seed,
                confidence=confidence, budget=3000, min_workload=30,
            )
            record = session.compare(1, 0)
            if record.outcome is Outcome.TIE:
                continue
            decided += 1
            errors += int(record.outcome is Outcome.RIGHT)
        assert decided > 60
        # allow slack for the sequential (repeated-look) setting
        assert errors / decided <= (1 - confidence) * 1.5 + 0.02
