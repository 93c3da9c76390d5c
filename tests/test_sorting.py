"""Crowd-powered ordering primitives."""

import pytest

from repro.core.sorting import (
    bubble_sort_to_median,
    crowd_max_many,
    median_of_multiset,
    odd_even_sort,
)
from repro.errors import AlgorithmError
from tests.conftest import make_latent_session


def _clean_session(scores, **kwargs):
    """Session over well-separated scores: crowd sorting is exact."""
    defaults = dict(sigma=0.2, seed=3)
    defaults.update(kwargs)
    return make_latent_session(scores, **defaults)


class TestCrowdMax:
    def test_finds_best(self):
        session = _clean_session([0.0, 10.0, 5.0, 2.0, 8.0])
        assert crowd_max_many(session, [[0, 1, 2, 3, 4]])[0] == 1

    def test_duplicates_collapsed(self):
        session = _clean_session([0.0, 10.0])
        assert crowd_max_many(session, [[0, 1, 1, 0, 1]])[0] == 1

    def test_single_item_costs_nothing(self):
        session = _clean_session([1.0, 2.0])
        assert crowd_max_many(session, [[0]])[0] == 0
        assert session.total_cost == 0

    def test_empty_rejected(self):
        session = _clean_session([1.0])
        with pytest.raises(AlgorithmError):
            crowd_max_many(session, [[]])

    def test_latency_is_logarithmic_in_entrants(self):
        session = _clean_session(list(range(16)), min_workload=2, batch_size=10)
        crowd_max_many(session, [list(range(16))])
        # 4 knockout levels, each one parallel group of cheap comparisons.
        assert session.total_rounds <= 8


class TestCrowdMaxMany:
    def test_matches_individual_maxima(self):
        scores = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0]
        session = _clean_session(scores)
        samples = [[0, 3, 5], [1, 2], [4, 0, 1, 2]]
        maxima = crowd_max_many(session, samples)
        assert maxima == [5, 2, 4]

    def test_lockstep_latency_beats_sequential(self):
        scores = list(range(0, 64, 2))
        parallel = _clean_session(scores, min_workload=2, batch_size=10)
        crowd_max_many(parallel, [list(range(16)), list(range(16, 32))])
        sequential = _clean_session(scores, min_workload=2, batch_size=10)
        crowd_max_many(sequential, [list(range(16))])
        crowd_max_many(sequential, [list(range(16, 32))])
        assert parallel.total_rounds <= sequential.total_rounds

    def test_empty_sample_rejected(self):
        session = _clean_session([1.0, 2.0])
        with pytest.raises(AlgorithmError):
            crowd_max_many(session, [[0], []])


class TestOddEvenSort:
    def test_sorts_best_first(self):
        session = _clean_session([2.0, 8.0, 0.0, 6.0, 4.0])
        assert odd_even_sort(session, [0, 1, 2, 3, 4]) == [1, 3, 4, 0, 2]

    def test_presorted_input_is_cheap(self):
        session = _clean_session(list(range(0, 20, 2)))
        sorted_once = odd_even_sort(session, list(range(10)))
        cost_first = session.total_cost
        again = odd_even_sort(session, sorted_once[::-1], initial_order=sorted_once)
        assert again == sorted_once
        # the good initial order only re-verifies adjacent pairs (cached).
        assert session.total_cost == cost_first

    def test_initial_order_must_be_permutation(self):
        session = _clean_session([1.0, 2.0, 3.0])
        with pytest.raises(AlgorithmError):
            odd_even_sort(session, [0, 1, 2], initial_order=[0, 1])

    def test_duplicates_rejected(self):
        session = _clean_session([1.0, 2.0])
        with pytest.raises(AlgorithmError):
            odd_even_sort(session, [0, 0, 1])

    def test_trivial_inputs(self):
        session = _clean_session([1.0, 2.0])
        assert odd_even_sort(session, []) == []
        assert odd_even_sort(session, [1]) == [1]


class TestMedianSelection:
    def test_bubble_median_odd(self):
        session = _clean_session([0.0, 2.0, 4.0, 6.0, 8.0])
        # Ranked best-first: 4,3,2,1,0 → median is item 2.
        assert bubble_sort_to_median(session, [0, 1, 2, 3, 4]) == 2

    def test_bubble_median_single(self):
        session = _clean_session([1.0, 2.0])
        assert bubble_sort_to_median(session, [1]) == 1

    def test_bubble_median_handles_duplicates(self):
        session = _clean_session([0.0, 5.0, 10.0])
        # Multiset {2, 2, 1}: upper median is 2.
        assert bubble_sort_to_median(session, [2, 2, 1]) == 2

    def test_bubble_median_empty_rejected(self):
        session = _clean_session([1.0])
        with pytest.raises(AlgorithmError):
            bubble_sort_to_median(session, [])

    def test_multiset_median_counts_multiplicity(self):
        session = _clean_session([0.0, 5.0, 10.0])
        # {0, 1, 1, 1, 2}: median (3rd best of 5) is 1.
        assert median_of_multiset(session, [0, 1, 1, 1, 2]) == 1

    def test_multiset_median_agrees_with_bubble(self):
        scores = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
        ids = [3, 0, 6, 1, 5, 2, 4]
        a = bubble_sort_to_median(_clean_session(scores), ids)
        b = median_of_multiset(_clean_session(scores), ids)
        assert a == b


class TestMergeSort:
    def test_sorts_best_first(self):
        from repro.core.sorting import merge_sort

        session = _clean_session([2.0, 8.0, 0.0, 6.0, 4.0])
        assert merge_sort(session, [0, 1, 2, 3, 4]) == [1, 3, 4, 0, 2]

    def test_trivial_inputs(self):
        from repro.core.sorting import merge_sort

        session = _clean_session([1.0, 2.0])
        assert merge_sort(session, []) == []
        assert merge_sort(session, [1]) == [1]

    def test_duplicates_rejected(self):
        from repro.core.sorting import merge_sort

        session = _clean_session([1.0, 2.0])
        with pytest.raises(AlgorithmError):
            merge_sort(session, [0, 0])

    def test_cost_is_input_independent(self):
        from repro.core.sorting import merge_sort

        scores = list(range(0, 32, 2))
        sorted_in = _clean_session(scores, min_workload=2)
        merge_sort(sorted_in, list(range(15, -1, -1)))  # already sorted
        shuffled_in = _clean_session(scores, min_workload=2)
        order = list(range(16))
        shuffled_in.rng.shuffle(order)
        merge_sort(shuffled_in, order)
        # comparison counts differ by at most the merge path variance
        assert abs(sorted_in.cost.comparisons - shuffled_in.cost.comparisons) < 20


class TestInsertionSort:
    def test_sorts_best_first(self):
        from repro.core.sorting import insertion_sort

        session = _clean_session([2.0, 8.0, 0.0, 6.0, 4.0])
        assert insertion_sort(session, [0, 1, 2, 3, 4]) == [1, 3, 4, 0, 2]

    def test_adaptive_on_sorted_input(self):
        from repro.core.sorting import insertion_sort, merge_sort

        scores = list(range(0, 40, 2))
        presorted = list(range(19, -1, -1))  # best first already
        cheap = _clean_session(scores, min_workload=2)
        insertion_sort(cheap, presorted)
        steep = _clean_session(scores, min_workload=2)
        merge_sort(steep, presorted)
        # n-1 comparisons vs n log n: adaptivity pays.
        assert cheap.cost.comparisons < steep.cost.comparisons

    def test_initial_order_must_be_permutation(self):
        from repro.core.sorting import insertion_sort

        session = _clean_session([1.0, 2.0, 3.0])
        with pytest.raises(AlgorithmError):
            insertion_sort(session, [0, 1, 2], initial_order=[0, 1])

    def test_agrees_with_odd_even(self):
        from repro.core.sorting import insertion_sort, odd_even_sort

        scores = [float(i) for i in range(12)]
        a = insertion_sort(_clean_session(scores), list(range(12)))
        b = odd_even_sort(_clean_session(scores), list(range(12)))
        assert a == b == list(range(11, -1, -1))
