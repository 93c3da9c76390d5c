"""The SPR framework: selection, partitioning, ranking, and the driver."""

import numpy as np
import pytest

from repro.config import SPRConfig
from repro.core.spr import (
    expected_precision_lower_bound,
    partition,
    reference_sort,
    select_reference,
    spr_topk,
)
from repro.core.spr.rank import thurstone_order
from repro.errors import AlgorithmError
from repro.stats.thurstone import win_probability
from tests.conftest import make_latent_session

# Well-separated 30-item universe: every comparison resolves quickly and
# SPR's answers are exact, making structural assertions deterministic.
SCORES = [float(i) for i in range(30)]


def clean_session(seed=0, **kwargs):
    defaults = dict(sigma=0.3, min_workload=5, batch_size=10, budget=200)
    defaults.update(kwargs)
    return make_latent_session(SCORES, seed=seed, **defaults)


class TestSelectReference:
    def test_reference_is_a_member(self):
        session = clean_session()
        result = select_reference(session, list(range(30)), 5)
        assert result.reference in range(30)

    def test_plan_within_budget(self):
        session = clean_session()
        result = select_reference(session, list(range(30)), 5)
        assert result.plan.comparisons <= 30
        assert len(result.maxima) == result.plan.m

    def test_costs_recorded(self):
        session = clean_session()
        result = select_reference(session, list(range(30)), 5)
        assert result.cost == session.total_cost
        assert result.cost > 0

    def test_reference_lands_near_sweet_spot_on_average(self):
        # Statistical property over many seeds: the reference's true rank
        # is concentrated far from the uniform-guess mean of N/2.
        ranks = []
        for seed in range(25):
            session = clean_session(seed=seed)
            result = select_reference(session, list(range(30)), 5, sweet_spot=2.0)
            ranks.append(30 - result.reference)  # score i has rank 30 - i
        assert np.mean(ranks) < 15
        assert min(ranks) >= 1

    def test_validates_inputs(self):
        session = clean_session()
        with pytest.raises(AlgorithmError):
            select_reference(session, [1], 1)
        with pytest.raises(AlgorithmError):
            select_reference(session, list(range(10)), 10)


class TestPartition:
    def test_groups_are_exact_for_clean_oracle(self):
        session = clean_session()
        result = partition(session, list(range(30)), 5, reference=20)
        # Items 21..29 strictly beat item 20; the rest lose.
        assert sorted(result.winners) == list(range(21, 30))
        assert result.ties == ()
        assert sorted(result.losers) == list(range(21))
        assert result.reference == 20

    def test_partition_is_exhaustive(self):
        session = clean_session(sigma=2.0, budget=60)
        result = partition(session, list(range(30)), 5, reference=15)
        everything = sorted(result.winners + result.ties + result.losers)
        assert everything == list(range(30))

    def test_reference_added_to_winners_when_short(self):
        session = clean_session()
        result = partition(session, list(range(30)), 5, reference=28)
        # Only item 29 beats 28; Line 13 adds the reference back.
        assert 28 in result.winners
        assert len(result.winners) == 2

    def test_reference_among_losers_when_enough_winners(self):
        session = clean_session()
        result = partition(session, list(range(30)), 3, reference=20)
        assert 20 in result.losers or result.reference != 20

    def test_reference_change_improves_reference(self):
        # Noisy enough that near-reference pairs outlive the first rounds,
        # leaving undecided work for the change to benefit (Lines 9-12 only
        # fire while something is still racing).
        session = clean_session(sigma=4.0, min_workload=10, budget=3000)
        result = partition(
            session, list(range(30)), 3, reference=10, max_reference_changes=4
        )
        assert result.reference_changes >= 1
        # the final reference must be better than the initial one
        assert result.reference > 10

    def test_no_changes_when_disabled(self):
        session = clean_session()
        result = partition(
            session, list(range(30)), 3, reference=10, max_reference_changes=0
        )
        assert result.reference_changes == 0
        assert result.reference == 10

    def test_changes_bounded(self):
        session = clean_session()
        result = partition(
            session, list(range(30)), 3, reference=0, max_reference_changes=2
        )
        assert result.reference_changes <= 2

    def test_validates_inputs(self):
        session = clean_session()
        with pytest.raises(AlgorithmError):
            partition(session, [0, 1], 1, reference=5)
        with pytest.raises(AlgorithmError):
            partition(session, [0, 1], 3, reference=0)
        with pytest.raises(AlgorithmError):
            partition(session, [0, 1], 1, reference=0, max_reference_changes=-1)


class TestRank:
    def test_thurstone_order_uses_reference_bags(self):
        session = clean_session()
        partition(session, list(range(30)), 5, reference=20)
        order = thurstone_order(session, [25, 22, 28, 20], 20)
        assert order == [28, 25, 22, 20]

    def test_reference_sort_exact(self):
        session = clean_session()
        result = partition(session, list(range(30)), 5, reference=20)
        ranked = reference_sort(session, list(result.winners), 20)
        assert ranked == sorted(result.winners, reverse=True)

    def test_reference_sort_without_reference(self):
        session = clean_session()
        ranked = reference_sort(session, [3, 9, 6, 0])
        assert ranked == [9, 6, 3, 0]

    def test_win_probability_orders_pairs(self):
        # The Thurstone order is the one the pairwise win probabilities
        # induce: each candidate beats the next with probability > 1/2.
        session = clean_session()
        partition(session, list(range(30)), 5, reference=20)
        order = thurstone_order(session, [22, 28, 25], 20)

        def bag(item):  # mean against the reference and its variance
            n, mean, var = session.moments(item, 20)
            return mean, var / n

        assert order == [28, 25, 22]
        for better, worse in zip(order, order[1:]):
            assert win_probability(*bag(better), *bag(worse)) > 0.9


class TestDriver:
    def test_exact_topk_on_clean_oracle(self):
        session = clean_session()
        result = spr_topk(session, list(range(30)), 5)
        assert list(result.topk) == [29, 28, 27, 26, 25]

    def test_small_input_sorts_directly(self):
        session = clean_session()
        result = spr_topk(session, [4, 1, 3], 2)
        assert list(result.topk) == [4, 3]
        assert result.selection is None
        assert result.partition_result is None

    def test_k_equals_n_returns_full_order(self):
        session = clean_session()
        result = spr_topk(session, [0, 5, 2, 9], 4)
        assert list(result.topk) == [9, 5, 2, 0]

    def test_cost_matches_session(self):
        session = clean_session()
        result = spr_topk(session, list(range(30)), 5)
        assert result.cost == session.total_cost
        assert result.rounds == session.total_rounds

    def test_duplicate_ids_rejected(self):
        session = clean_session()
        with pytest.raises(AlgorithmError):
            spr_topk(session, [1, 1, 2], 1)

    def test_invalid_k_rejected(self):
        session = clean_session()
        with pytest.raises(AlgorithmError):
            spr_topk(session, [1, 2], 3)

    def test_diagnostics_populated(self):
        session = clean_session()
        result = spr_topk(session, list(range(30)), 5)
        assert result.selection is not None
        assert result.partition_result is not None
        sizes = (
            len(result.partition_result.winners)
            + len(result.partition_result.ties)
            + len(result.partition_result.losers)
        )
        assert sizes == 30

    def test_recursion_path(self):
        # Force recursion: a reference so good that winners+ties < k.
        session = clean_session()
        config = SPRConfig(
            comparison=session.config,
            max_reference_changes=0,
            min_items_for_selection=2,
        )
        part = partition(session, list(range(30)), 8, reference=28,
                         max_reference_changes=0)
        assert len(part.winners) + len(part.ties) < 8  # precondition

        fresh = clean_session(seed=1)
        # monkey-path-free approach: run the driver on a tiny sweet spot so
        # selection may pick a too-good reference; instead assert the
        # recursive branch produces the right answer via the public API.
        result = spr_topk(fresh, list(range(30)), 8, config)
        assert list(result.topk) == list(range(29, 21, -1))

    def test_noisy_run_still_accurate(self):
        session = make_latent_session(
            np.linspace(0, 10, 40), sigma=1.5, seed=5,
            min_workload=10, budget=500, batch_size=10,
        )
        result = spr_topk(session, list(range(40)), 5)
        truth = set(range(35, 40))
        assert len(truth & set(result.topk)) >= 4


class TestPrecisionBound:
    def test_formula(self):
        assert expected_precision_lower_bound(0.02, 1.5) == pytest.approx(
            0.98 / 1.5
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_precision_lower_bound(0.0, 1.5)
        with pytest.raises(ValueError):
            expected_precision_lower_bound(0.05, 1.0)

    def test_empirical_precision_beats_bound(self):
        # §5.4: the bound is loose; clean runs should exceed it easily.
        bound = expected_precision_lower_bound(0.05, 1.5)
        hits = 0
        for seed in range(10):
            session = clean_session(seed=seed)
            result = spr_topk(session, list(range(30)), 5)
            hits += len(set(result.topk) & set(range(25, 30))) / 5
        assert hits / 10 >= bound
