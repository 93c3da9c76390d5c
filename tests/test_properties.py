"""Property-based tests (hypothesis) on the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cache import JudgmentCache
from repro.core.estimators import HoeffdingTester, SteinTester, StudentTester
from repro.core.items import ItemSet
from repro.metrics import kendall_tau, ndcg_at_k, top_k_precision
from repro.stats.median_cost import bubble_median_comparisons
from repro.stats.reference import hit_probability, median_in_sweet_spot_probability
from repro.stats.thurstone import win_probability

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(finite_floats, min_size=0, max_size=200)


class TestMomentAndScanProperties:
    @given(values=sample_lists)
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_streaming_exactly(self, values):
        """The vectorized scan must be indistinguishable from one-at-a-time
        pushes — the invariant the whole simulator's correctness rests on."""
        values = np.asarray(values)
        scanner = StudentTester(alpha=0.05, min_workload=5)
        consumed, decision = scanner.scan(values)

        streamer = StudentTester(alpha=0.05, min_workload=5)
        stream_decision, stream_consumed = None, 0
        for v in values:
            streamer.push(v)
            stream_consumed += 1
            stream_decision = streamer.decision()
            if stream_decision is not None:
                break
        assert consumed == stream_consumed if values.size else consumed == 0
        assert decision == stream_decision
        assert scanner.state.n == streamer.state.n
        if scanner.state.n:
            assert math.isclose(
                scanner.state.mean, streamer.state.mean, rel_tol=1e-9, abs_tol=1e-9
            )

    @given(values=sample_lists, split=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_scan_is_chunk_invariant(self, values, split):
        """Feeding one chunk or two must consume the same samples and reach
        the same verdict (batching must never change the statistics)."""
        values = np.asarray(values)
        split = min(split, len(values))
        whole = SteinTester(alpha=0.1, min_workload=4)
        consumed_whole, decision_whole = whole.scan(values)

        parts = SteinTester(alpha=0.1, min_workload=4)
        consumed_a, decision_a = parts.scan(values[:split])
        consumed_b, decision_b = 0, decision_a
        if decision_a is None:
            consumed_b, decision_b = parts.scan(values[split:])
        assert consumed_whole == consumed_a + consumed_b
        assert decision_whole == decision_b

    @given(values=st.lists(finite_floats, min_size=2, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_decision_sign_matches_mean_sign(self, values):
        """A verdict must always point the same way as the sample mean."""
        tester = StudentTester(alpha=0.05, min_workload=2)
        consumed, decision = tester.scan(np.asarray(values))
        if decision is not None:
            assert decision == (1 if tester.state.mean > 0 else -1)


class TestHoeffdingProperties:
    @given(
        values=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=300),
        alpha=st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_verdict_before_equation3_bound(self, values, alpha):
        """Hoeffding can never decide before Equation (3)'s sample count
        for a perfectly one-sided stream (|mean| <= 1)."""
        tester = HoeffdingTester(alpha=alpha, min_workload=2, value_range=2.0)
        consumed, decision = tester.scan(np.asarray(values))
        if decision is not None:
            assert consumed >= 2.0 * math.log(2.0 / alpha)


class TestCacheProperties:
    @given(
        chunks=st.lists(
            st.tuples(st.booleans(), st.lists(finite_floats, min_size=1, max_size=20)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_orientation_invariant(self, chunks):
        """Appending through either orientation yields mirrored bags."""
        cache = JudgmentCache()
        expected: list[float] = []
        for flipped, values in chunks:
            if flipped:
                cache.append(7, 3, np.asarray(values))
                expected.extend(-v for v in values)
            else:
                cache.append(3, 7, np.asarray(values))
                expected.extend(values)
        assert np.allclose(cache.bag(3, 7), expected)
        assert np.allclose(cache.bag(7, 3), [-v for v in expected])
        assert cache.total_samples == len(expected)


class TestStatsProperties:
    @given(
        n=st.integers(min_value=2, max_value=5000),
        j=st.integers(min_value=0, max_value=5000),
        x=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_hit_probability_is_probability(self, n, j, x):
        p = hit_probability(n, min(j, n), x)
        assert 0.0 <= p <= 1.0

    @given(
        n=st.integers(min_value=20, max_value=2000),
        k=st.integers(min_value=1, max_value=10),
        x=st.integers(min_value=1, max_value=100),
        m=st.sampled_from([1, 3, 5, 7, 9, 11]),
        c=st.floats(min_value=1.1, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_sweet_spot_probability_in_unit_interval(self, n, k, x, m, c):
        assume(k < n)
        p = median_in_sweet_spot_probability(n, k, c, x, m)
        assert -1e-9 <= p <= 1.0 + 1e-9

    @given(m=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_bubble_median_cost_below_paper_bound(self, m):
        assert bubble_median_comparisons(m) <= (3 * m * m + m - 2) / 8 + 1e-9

    @given(
        mean_i=st.floats(min_value=-10, max_value=10),
        mean_j=st.floats(min_value=-10, max_value=10),
        var_i=st.floats(min_value=0, max_value=10),
        var_j=st.floats(min_value=0, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_thurstone_symmetry(self, mean_i, mean_j, var_i, var_j):
        p = win_probability(mean_i, var_i, mean_j, var_j)
        q = win_probability(mean_j, var_j, mean_i, var_i)
        assert math.isclose(p + q, 1.0, abs_tol=1e-9)
        assert 0.0 <= p <= 1.0


class TestMetricProperties:
    @st.composite
    def items_and_list(draw):
        n = draw(st.integers(min_value=2, max_value=30))
        scores = draw(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        k = draw(st.integers(min_value=1, max_value=n))
        perm = draw(st.permutations(list(range(n))))
        return ItemSet(ids=np.arange(n), scores=np.asarray(scores)), perm[:k], k

    @given(data=items_and_list())
    @settings(max_examples=80, deadline=None)
    def test_ndcg_bounded_and_ideal_is_one(self, data):
        items, returned, k = data
        value = ndcg_at_k(items, returned, k)
        assert 0.0 <= value <= 1.0 + 1e-9
        ideal = items.true_top_k(k).tolist()
        assert ndcg_at_k(items, ideal, k) == pytest.approx(1.0)

    @given(data=items_and_list())
    @settings(max_examples=80, deadline=None)
    def test_precision_bounded(self, data):
        items, returned, k = data
        assert 0.0 <= top_k_precision(items, returned, k) <= 1.0

    @given(data=items_and_list())
    @settings(max_examples=80, deadline=None)
    def test_kendall_tau_bounded(self, data):
        items, returned, _ = data
        assert -1.0 <= kendall_tau(items, returned) <= 1.0
