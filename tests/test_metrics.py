"""Quality metrics: NDCG, precision/recall, Kendall tau, comparison accuracy."""

import math

import pytest

from repro.core.comparison import ComparisonRecord
from repro.core.outcomes import Outcome
from repro.metrics import (
    comparison_accuracy,
    dcg,
    kendall_tau,
    ndcg_at_k,
    top_k_precision,
    top_k_recall,
)
from tests.conftest import make_items


@pytest.fixture
def items():
    # ids 0..9, scores equal to ids: true order 9, 8, ..., 0.
    return make_items([float(i) for i in range(10)])


class TestNDCG:
    def test_perfect_list_scores_one(self, items):
        for scheme in ("topk", "linear", "exponential"):
            assert ndcg_at_k(items, [9, 8, 7], 3, scheme=scheme) == pytest.approx(1.0)

    def test_worst_list_scores_low(self, items):
        assert ndcg_at_k(items, [0, 1, 2], 3) == 0.0  # topk gains: no overlap
        assert ndcg_at_k(items, [0, 1, 2], 3, scheme="linear") < 0.5

    def test_order_within_topk_matters(self, items):
        swapped = ndcg_at_k(items, [8, 9, 7], 3)
        assert swapped < 1.0
        assert swapped > ndcg_at_k(items, [7, 8, 9], 3)

    def test_one_wrong_item_beats_two(self, items):
        one = ndcg_at_k(items, [9, 8, 0], 3)
        two = ndcg_at_k(items, [9, 1, 0], 3)
        assert 1.0 > one > two

    def test_topk_gains_ignore_out_of_topk_rank(self, items):
        # items 0 and 4 are both outside the true top-3: equally worthless.
        assert ndcg_at_k(items, [9, 8, 0], 3) == ndcg_at_k(items, [9, 8, 4], 3)

    def test_dcg_discounts_logarithmically(self, items):
        assert dcg(items, [9], scheme="linear") == pytest.approx(10.0)
        assert dcg(items, [9, 8], scheme="linear") == pytest.approx(
            10.0 + 9.0 / math.log2(3)
        )

    def test_dcg_topk_gains(self, items):
        # k=2: rank-1 item worth 2, rank-2 worth 1, others 0.
        assert dcg(items, [9, 8], scheme="topk") == pytest.approx(
            2.0 + 1.0 / math.log2(3)
        )
        assert dcg(items, [0, 1], scheme="topk") == 0.0

    def test_truncates_to_k(self, items):
        assert ndcg_at_k(items, [9, 8, 7, 0, 1], 3) == pytest.approx(1.0)

    def test_exponential_gains_supported(self, items):
        assert ndcg_at_k(items, [9, 8, 7], 3, scheme="exponential") == pytest.approx(1.0)
        assert ndcg_at_k(items, [0, 1, 2], 3, scheme="exponential") < ndcg_at_k(
            items, [0, 1, 2], 3, scheme="linear"
        )

    def test_duplicates_rejected(self, items):
        with pytest.raises(ValueError):
            ndcg_at_k(items, [9, 9], 2)

    def test_unknown_scheme_rejected(self, items):
        with pytest.raises(ValueError):
            ndcg_at_k(items, [9], 1, scheme="cubic")

    def test_invalid_k_rejected(self, items):
        with pytest.raises(ValueError):
            ndcg_at_k(items, [9], 0)


class TestPrecisionRecall:
    def test_perfect(self, items):
        assert top_k_precision(items, [9, 8, 7], 3) == 1.0
        assert top_k_recall(items, [9, 8, 7], 3) == 1.0

    def test_partial(self, items):
        assert top_k_precision(items, [9, 8, 0], 3) == pytest.approx(2 / 3)
        assert top_k_recall(items, [9, 8, 0], 3) == pytest.approx(2 / 3)

    def test_order_ignored(self, items):
        assert top_k_precision(items, [7, 9, 8], 3) == 1.0

    def test_empty_returned(self, items):
        assert top_k_precision(items, [], 3) == 0.0
        assert top_k_recall(items, [], 3) == 0.0

    def test_validation(self, items):
        with pytest.raises(ValueError):
            top_k_precision(items, [9], 0)
        with pytest.raises(ValueError):
            top_k_recall(items, [9], 0)


class TestKendallTau:
    def test_perfect_order(self, items):
        assert kendall_tau(items, [9, 8, 7, 6]) == 1.0

    def test_reversed_order(self, items):
        assert kendall_tau(items, [6, 7, 8, 9]) == -1.0

    def test_single_swap(self, items):
        assert kendall_tau(items, [8, 9, 7]) == pytest.approx(1 / 3)

    def test_short_lists(self, items):
        assert kendall_tau(items, [5]) == 1.0
        assert kendall_tau(items, []) == 1.0

    def test_duplicates_rejected(self, items):
        with pytest.raises(ValueError):
            kendall_tau(items, [9, 9])


class TestComparisonAccuracy:
    def _record(self, left, right, outcome):
        return ComparisonRecord(
            left=left, right=right, outcome=outcome,
            workload=30, cost=30, rounds=1, mean=0.5, std=1.0,
        )

    def test_correct_verdict(self, items):
        assert comparison_accuracy(items, self._record(9, 0, Outcome.LEFT)) == 1.0
        assert comparison_accuracy(items, self._record(0, 9, Outcome.RIGHT)) == 1.0

    def test_wrong_verdict(self, items):
        assert comparison_accuracy(items, self._record(0, 9, Outcome.LEFT)) == 0.0

    def test_tie_is_excluded(self, items):
        assert comparison_accuracy(items, self._record(0, 9, Outcome.TIE)) is None


class TestSpearmanFootrule:
    def test_perfect_order_is_zero(self, items):
        from repro.metrics import spearman_footrule

        assert spearman_footrule(items, [9, 8, 7, 6]) == 0.0

    def test_reversal_is_one(self, items):
        from repro.metrics import spearman_footrule

        assert spearman_footrule(items, [6, 7, 8, 9]) == 1.0

    def test_single_swap_partial(self, items):
        from repro.metrics import spearman_footrule

        value = spearman_footrule(items, [8, 9, 7])
        assert 0.0 < value < 1.0

    def test_short_lists_zero(self, items):
        from repro.metrics import spearman_footrule

        assert spearman_footrule(items, [5]) == 0.0
        assert spearman_footrule(items, []) == 0.0

    def test_duplicates_rejected(self, items):
        from repro.metrics import spearman_footrule

        with pytest.raises(ValueError):
            spearman_footrule(items, [9, 9])

    def test_odd_length_normalization(self, items):
        from repro.metrics import spearman_footrule

        # Max disarray for odd m uses (m^2 - 1)/2: the full reversal.
        assert spearman_footrule(items, [5, 6, 7, 8, 9]) == 1.0
