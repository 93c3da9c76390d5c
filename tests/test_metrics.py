"""Quality metrics (§6.2): NDCG and top-k precision."""

import math

import pytest

from repro.metrics import dcg, ndcg_at_k, top_k_precision
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
    """Precision; when ``k`` items come back it is also the recall."""

    def test_perfect(self, items):
        assert top_k_precision(items, [9, 8, 7], 3) == 1.0

    def test_partial(self, items):
        assert top_k_precision(items, [9, 8, 0], 3) == pytest.approx(2 / 3)

    def test_order_ignored(self, items):
        assert top_k_precision(items, [7, 9, 8], 3) == 1.0

    def test_empty_returned(self, items):
        assert top_k_precision(items, [], 3) == 0.0

    def test_validation(self, items):
        with pytest.raises(ValueError):
            top_k_precision(items, [9], 0)
