"""Judgment cache: sign canonicalization, growth, moments."""

import numpy as np
import pytest

from repro.core.cache import JudgmentCache


def _defer(cache, lefts, rights, values, counts):
    """Queue a padded batch under its pairs' slot ids, as a racing round
    does."""
    slots = cache.slot_ids(lefts, rights)
    cache.defer_rows(lefts, rights, values, counts, slots=slots)


def _fold_rows(cache, lefts, rights, values, counts):
    """Store a padded batch at once: queued, then folded."""
    _defer(cache, lefts, rights, values, counts)
    cache.settle()


class TestSymmetry:
    def test_bag_flips_sign_with_orientation(self):
        cache = JudgmentCache()
        cache.append(1, 2, np.array([0.5, -0.25]))
        assert cache.bag(1, 2).tolist() == [0.5, -0.25]
        assert cache.bag(2, 1).tolist() == [-0.5, 0.25]

    def test_both_orientations_share_one_bag(self):
        cache = JudgmentCache()
        cache.append(3, 7, np.array([1.0]))
        cache.append(7, 3, np.array([2.0]))
        assert cache.bag(3, 7).tolist() == [1.0, -2.0]
        assert len(cache.bag(7, 3)) == 2

    def test_self_pair_rejected(self):
        cache = JudgmentCache()
        with pytest.raises(ValueError):
            cache.bag(4, 4)
        with pytest.raises(ValueError):
            cache.append(4, 4, np.array([1.0]))


class TestStorage:
    def test_empty_bag(self):
        cache = JudgmentCache()
        assert cache.bag(0, 1).size == 0

    def test_append_empty_is_noop(self):
        cache = JudgmentCache()
        cache.append(0, 1, np.array([]))
        assert cache.total_samples == 0
        assert cache.pair_count == 0

    def test_growth_beyond_initial_capacity(self, rng):
        cache = JudgmentCache()
        chunks = [rng.normal(size=17) for _ in range(20)]
        for chunk in chunks:
            cache.append(0, 1, chunk)
        expected = np.concatenate(chunks)
        assert np.allclose(cache.bag(0, 1), expected)
        assert len(cache.bag(0, 1)) == 17 * 20

    def test_totals(self):
        cache = JudgmentCache()
        cache.append(0, 1, np.ones(3))
        cache.append(2, 5, np.ones(4))
        assert cache.total_samples == 7
        assert cache.pair_count == 2
        assert sorted(cache.pairs()) == [(0, 1), (2, 5)]

    def test_clear(self):
        cache = JudgmentCache()
        cache.append(0, 1, np.ones(3))
        cache.clear()
        assert cache.total_samples == 0
        assert cache.bag(0, 1).size == 0


class TestMoments:
    def test_moments_of_empty_bag(self):
        cache = JudgmentCache()
        n, mean, var = cache.moments(0, 1)
        assert n == 0
        assert np.isnan(mean)
        assert np.isnan(var)

    def test_moments_values(self):
        cache = JudgmentCache()
        cache.append(0, 1, np.array([1.0, 2.0, 3.0]))
        n, mean, var = cache.moments(0, 1)
        assert n == 3
        assert mean == pytest.approx(2.0)
        assert var == pytest.approx(1.0)

    def test_moments_respect_orientation(self):
        cache = JudgmentCache()
        cache.append(0, 1, np.array([1.0, 2.0]))
        _, mean_fwd, _ = cache.moments(0, 1)
        _, mean_rev, _ = cache.moments(1, 0)
        assert mean_fwd == pytest.approx(-mean_rev)

    def test_single_sample_variance_nan(self):
        cache = JudgmentCache()
        cache.append(0, 1, np.array([1.0]))
        n, mean, var = cache.moments(0, 1)
        assert (n, mean) == (1, 1.0)
        assert np.isnan(var)


class TestBatchedAppend:
    """A folded batch must equal per-row ``append`` bit for bit — buffers,
    running moments (Σv, Σv²) and totals, across orientations and growth."""

    def _equivalent(self, lefts, rights, values, counts):
        batched, sequential = JudgmentCache(), JudgmentCache()
        _fold_rows(batched, lefts, rights, values, counts)
        for row, count in enumerate(counts.tolist()):
            sequential.append(
                int(lefts[row]), int(rights[row]), values[row, :count]
            )
        assert batched.total_samples == sequential.total_samples
        assert sorted(batched._bags) == sorted(sequential._bags)
        for key, bag in batched._bags.items():
            other = sequential._bags[key]
            assert bag.view().tobytes() == other.view().tobytes()
            # Exact float equality: the grouped reductions must reproduce
            # numpy's per-row pairwise summation bitwise.
            assert bag.s1 == other.s1
            assert bag.s2 == other.s2

    def test_mixed_orientations_and_ragged_counts(self, rng):
        lefts = np.array([0, 5, 2, 9, 4, 7], dtype=np.int64)
        rights = np.array([1, 3, 8, 2, 0, 6], dtype=np.int64)
        values = rng.normal(size=(6, 10))
        counts = np.array([10, 3, 0, 7, 3, 10], dtype=np.int64)
        self._equivalent(lefts, rights, values, counts)

    def test_repeated_pairs_accumulate_in_row_order(self, rng):
        # The same canonical pair appears three times, twice flipped.
        lefts = np.array([2, 6, 6, 2], dtype=np.int64)
        rights = np.array([6, 2, 2, 6], dtype=np.int64)
        values = rng.normal(size=(4, 5))
        counts = np.array([5, 4, 2, 5], dtype=np.int64)
        self._equivalent(lefts, rights, values, counts)

    def test_growth_beyond_initial_capacity(self, rng):
        cache = JudgmentCache()
        reference = JudgmentCache()
        for _ in range(12):
            values = rng.normal(size=(2, 40))
            counts = np.array([40, 37], dtype=np.int64)
            lefts = np.array([0, 1], dtype=np.int64)
            rights = np.array([1, 0], dtype=np.int64)
            _fold_rows(cache, lefts, rights, values, counts)
            reference.append(0, 1, values[0])
            reference.append(1, 0, values[1, :37])
        assert cache.bag(0, 1).tobytes() == reference.bag(0, 1).tobytes()
        assert cache.total_samples == reference.total_samples

    def test_all_zero_counts_is_noop(self):
        cache = JudgmentCache()
        _fold_rows(
            cache,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            np.zeros((2, 4)),
            np.zeros(2, dtype=np.int64),
        )
        assert cache.total_samples == 0
        assert cache.pair_count == 0

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            _fold_rows(
                JudgmentCache(),
                np.array([3], dtype=np.int64),
                np.array([3], dtype=np.int64),
                np.ones((1, 2)),
                np.array([2], dtype=np.int64),
            )

    def test_empty_batch_is_noop(self):
        cache = JudgmentCache()
        _fold_rows(
            cache,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty((0, 4)),
            np.empty(0, dtype=np.int64),
        )
        assert cache.total_samples == 0


def _assert_same_cache(got: JudgmentCache, want: JudgmentCache) -> None:
    """Bags, running moments (bit for bit) and totals agree, through the
    public read API only."""
    assert got.pairs() == want.pairs()
    assert got.total_samples == want.total_samples
    for i, j in want.pairs():
        for a, b in ((i, j), (j, i)):
            assert got.bag(a, b).tobytes() == want.bag(a, b).tobytes()
            n, mean, var = got.moments(a, b)
            assert (n, float(mean).hex()) == (
                want.moments(a, b)[0],
                float(want.moments(a, b)[1]).hex(),
            )
            assert np.array_equal(var, want.moments(a, b)[2], equal_nan=True)


class TestDeferredRows:
    """``defer_rows`` queues; any read drains; the result must equal the
    same batches applied eagerly, bit for bit."""

    def _batch(self, rng, rows=3, width=6):
        lefts = rng.integers(0, 5, size=rows).astype(np.int64)
        rights = (lefts + 1 + rng.integers(0, 4, size=rows)).astype(np.int64)
        values = rng.normal(size=(rows, width))
        counts = rng.integers(0, width + 1, size=rows).astype(np.int64)
        return lefts, rights, values, counts

    def test_matches_eager_append_rows_bitwise(self, rng):
        deferred, eager = JudgmentCache(), JudgmentCache()
        for _ in range(7):
            batch = self._batch(rng)
            _defer(deferred, *batch)
            _fold_rows(eager, *batch)
        _assert_same_cache(deferred, eager)

    def test_reads_drain_pending(self):
        reads = {
            "bag": (lambda c: c.bag(0, 1).tolist(), [1.0, 2.0]),
            "moments": (lambda c: c.moments(0, 1)[:2], (2, 1.5)),
            "total_samples": (lambda c: c.total_samples, 2),
            "pair_count": (lambda c: c.pair_count, 1),
            "pairs": (lambda c: c.pairs(), [(0, 1)]),
            "replay": (
                lambda c: c.replay(
                    np.array([0], dtype=np.int64),
                    np.array([1], dtype=np.int64),
                    1,
                    "never",
                    lambda n, *_: np.zeros(n.shape, dtype=np.int8),
                    slots=c.slot_ids(np.array([0]), np.array([1])),
                ).s1.tolist(),
                [1.0],
            ),
        }
        for name, (read, expected) in reads.items():
            cache = JudgmentCache()
            _defer(
                cache,
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([[1.0, 2.0]]),
                np.array([2], dtype=np.int64),
            )
            assert read(cache) == expected, name

    def test_writes_drain_first_preserving_order(self, rng):
        deferred, eager = JudgmentCache(), JudgmentCache()
        _defer(
            deferred,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([[1.0, 2.0, 3.0]]),
            np.array([3], dtype=np.int64),
        )
        deferred.append(1, 0, np.array([4.0]))  # drains, then appends
        eager.append(0, 1, np.array([1.0, 2.0, 3.0]))
        eager.append(1, 0, np.array([4.0]))
        assert deferred.bag(0, 1).tobytes() == eager.bag(0, 1).tobytes()

    def test_pre_resolved_slots_match_key_lookup(self, rng):
        by_slot, by_key = JudgmentCache(), JudgmentCache()
        for _ in range(5):
            lefts, rights, values, counts = self._batch(rng)
            _defer(by_slot, lefts, rights, values, counts)
            for row, count in enumerate(counts.tolist()):
                by_key.append(int(lefts[row]), int(rights[row]), values[row, :count])
        _assert_same_cache(by_slot, by_key)

    def test_clear_cancels_pending(self):
        cache = JudgmentCache()
        _defer(
            cache,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([[1.0]]),
            np.array([1], dtype=np.int64),
        )
        cache.clear()
        assert cache.total_samples == 0
        assert cache.bag(0, 1).size == 0

    def test_settle_on_empty_queue_is_noop(self):
        cache = JudgmentCache()
        cache.settle()
        assert cache.total_samples == 0
