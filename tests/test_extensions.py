"""Extensions: prior-guided SPR, economics."""

import pytest

from repro.errors import AlgorithmError
from repro.extensions import (
    TASK_CATEGORIES,
    CostBreakdown,
    dollars_for,
    prior_reference,
    session_bill,
    spr_topk_with_prior,
)
from tests.conftest import make_latent_session

SCORES = [float(i) for i in range(30)]


def clean_session(seed=0, **kwargs):
    defaults = dict(sigma=0.5, min_workload=5, batch_size=10, budget=200)
    defaults.update(kwargs)
    return make_latent_session(SCORES, seed=seed, **defaults)


class TestPriorReference:
    def test_perfect_prior_hits_sweet_spot(self):
        priors = {i: float(i) for i in range(30)}
        reference = prior_reference(list(range(30)), 5, priors, sweet_spot=1.6)
        # sweet spot ranks {5..8}; the midpoint rank 6 is item 24.
        assert 30 - reference in range(5, 9)

    def test_missing_prior_rejected(self):
        with pytest.raises(AlgorithmError):
            prior_reference([0, 1, 2], 1, {0: 1.0, 1: 2.0})

    def test_validates_query(self):
        priors = {i: float(i) for i in range(5)}
        with pytest.raises(AlgorithmError):
            prior_reference(list(range(5)), 0, priors)
        with pytest.raises(AlgorithmError):
            prior_reference(list(range(5)), 2, priors, sweet_spot=1.0)

    def test_spr_with_prior_exact(self):
        session = clean_session()
        priors = {i: float(i) + session.rng.normal(0, 0.5) for i in range(30)}
        result = spr_topk_with_prior(session, list(range(30)), 5, priors)
        assert list(result.topk) == [29, 28, 27, 26, 25]
        assert result.selection is None  # no sampling phase was paid for

    def test_prior_saves_selection_cost(self):
        from repro.core.spr import spr_topk

        priors = {i: float(i) for i in range(30)}
        with_prior = clean_session(seed=3)
        prior_cost = spr_topk_with_prior(
            with_prior, list(range(30)), 5, priors
        ).cost
        plain = clean_session(seed=3)
        plain_cost = spr_topk(plain, list(range(30)), 5).cost
        assert prior_cost < plain_cost

    def test_bad_prior_costs_money_not_correctness(self):
        # An adversarial prior (reversed) still returns the right answer.
        priors = {i: -float(i) for i in range(30)}
        session = clean_session(seed=4)
        result = spr_topk_with_prior(session, list(range(30)), 5, priors)
        assert set(result.topk) == {29, 28, 27, 26, 25}


class TestEconomics:
    def test_dollars_at_paper_unit_cost(self):
        # the paper's interactive run: 10,560 tasks ≈ US$10.56
        assert dollars_for(10_560) == pytest.approx(10.56)

    def test_dollars_custom_rate(self):
        assert dollars_for(100, unit_cost_usd=0.05) == pytest.approx(5.0)

    def test_dollars_validation(self):
        with pytest.raises(ValueError):
            dollars_for(-1)
        with pytest.raises(ValueError):
            dollars_for(1, unit_cost_usd=-0.1)

    def test_table8_categories(self):
        assert set(TASK_CATEGORIES) == {"micro", "macro", "simple", "complex"}
        assert "pairwise preference judgment" in TASK_CATEGORIES["micro"].examples

    def test_session_bill(self):
        session = clean_session()
        session.compare(5, 0)
        session.compare(9, 1)
        bill = session_bill(session)
        assert isinstance(bill, CostBreakdown)
        assert bill.microtasks == session.total_cost
        assert bill.comparisons == 2
        assert bill.dollars == pytest.approx(bill.microtasks * 0.001)
        assert bill.mean_workload == pytest.approx(bill.microtasks / 2)
        assert "US$" in bill.summary()

    def test_empty_session_bill(self):
        bill = session_bill(clean_session())
        assert bill.mean_workload == 0.0
        assert bill.dollars == 0.0
