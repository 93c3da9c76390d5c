"""Property-based tests, round 2: cross-subsystem invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import JudgmentCache
from repro.core.items import ItemSet
from repro.metrics import spearman_footrule
from repro.persistence import cache_from_json, cache_to_json
from repro.stats.planning import predict_infimum_cost, predict_pair_workload
from repro.stats.workload import workload_ratio

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPersistenceProperties:
    @given(
        bags=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=50),
                st.lists(finite_floats, min_size=1, max_size=30),
            ),
            min_size=0,
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_lossless(self, bags):
        cache = JudgmentCache()
        for a, b, values in bags:
            if a == b:
                continue
            cache.append(a, b, np.asarray(values))
        loaded = cache_from_json(cache_to_json(cache))
        assert sorted(loaded.pairs()) == sorted(cache.pairs())
        for a, b in cache.pairs():
            assert np.allclose(loaded.bag(a, b), cache.bag(a, b))


class TestPlanningProperties:
    @given(
        gap=st.floats(min_value=1e-6, max_value=100.0),
        sigma=st.floats(min_value=1e-3, max_value=100.0),
        alpha=st.floats(min_value=0.01, max_value=0.3),
    )
    @settings(max_examples=80, deadline=None)
    def test_pair_workload_respects_clamps(self, gap, sigma, alpha):
        w = predict_pair_workload(gap, sigma, alpha, min_workload=30, budget=1000)
        assert 30.0 <= w <= 1000.0

    @given(
        gap=st.floats(min_value=1e-3, max_value=10.0),
        sigma=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_workload_monotone_in_gap(self, gap, sigma):
        narrow = predict_pair_workload(gap, sigma, 0.05, min_workload=2, budget=None)
        wide = predict_pair_workload(2 * gap, sigma, 0.05, min_workload=2, budget=None)
        assert wide <= narrow + 1e-9

    @given(
        scores=st.lists(finite_floats, min_size=3, max_size=40, unique=True),
        alpha=st.floats(min_value=0.02, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_infimum_prediction_positive_and_bounded(self, scores, alpha):
        k = max(1, len(scores) // 3)
        total = predict_infimum_cost(
            scores, k, 1.0, alpha, min_workload=30, budget=1000
        )
        pairs = (k - 1) + (len(scores) - k)
        assert 30.0 * pairs <= total <= 1000.0 * pairs

    @given(
        mu=st.floats(min_value=0.01, max_value=5.0),
        sigma=st.floats(min_value=0.1, max_value=5.0),
        alpha=st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=80, deadline=None)
    def test_binary_never_cheaper(self, mu, sigma, alpha):
        # Appendix D's claim as a property over the whole parameter box.
        assert workload_ratio(mu, sigma, alpha) > 1.0


class TestFootruleProperties:
    @st.composite
    def items_and_permutation(draw):
        n = draw(st.integers(min_value=2, max_value=20))
        scores = draw(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=n, max_size=n, unique=True,
            )
        )
        perm = draw(st.permutations(list(range(n))))
        return ItemSet(ids=np.arange(n), scores=np.asarray(scores)), perm

    @given(data=items_and_permutation())
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_zero_iff_sorted(self, data):
        items, perm = data
        value = spearman_footrule(items, perm)
        assert 0.0 <= value <= 1.0
        ideal = sorted(perm, key=lambda i: items.rank_of(i))
        assert (value == 0.0) == (list(perm) == ideal)

    @given(data=items_and_permutation())
    @settings(max_examples=50, deadline=None)
    def test_reversal_is_maximal(self, data):
        items, perm = data
        ideal = sorted(perm, key=lambda i: items.rank_of(i))
        assert spearman_footrule(items, ideal[::-1]) == pytest.approx(1.0)
