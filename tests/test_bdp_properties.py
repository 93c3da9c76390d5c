"""Property-based tests (hypothesis) on the BDP ranker's math.

The moment-matched update and the vectorized one-step lookahead are the
two places where an algebra slip would silently corrupt every BDP
answer, so both are pinned by generated instances: the update against
its closed-form invariants, the vectorized scorer against the O(K⁴)
scalar reference it replaces, and the scorer's per-query memo against a
fresh computation, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bdp import (
    LookaheadMemo,
    _sym_error,
    moment_match,
    ranking_loss,
    score_pairs,
    score_pairs_reference,
)
from repro.core.stopping import pair_error

#: Gamma shapes stay in a range where betainc is well-conditioned; the
#: algorithm itself never leaves it (mass is conserved at N·prior).
shapes_st = st.floats(min_value=1e-3, max_value=1e3)

shape_vectors = st.lists(
    st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=7
).map(lambda values: np.asarray(values, dtype=np.float64))


class TestMomentMatch:
    @given(shapes_st, shapes_st)
    @settings(max_examples=100, deadline=None)
    def test_updated_shapes_positive_and_finite(self, winner, loser):
        new_w, new_l = moment_match(winner, loser)
        assert np.isfinite(new_w) and new_w > 0
        assert np.isfinite(new_l) and new_l > 0

    @given(shapes_st, shapes_st)
    @settings(max_examples=100, deadline=None)
    def test_total_mass_is_conserved(self, winner, loser):
        new_w, new_l = moment_match(winner, loser)
        np.testing.assert_allclose(new_w + new_l, winner + loser, rtol=1e-9)

    @given(shapes_st, shapes_st)
    @settings(max_examples=100, deadline=None)
    def test_winner_posterior_mean_never_decreases(self, winner, loser):
        new_w, new_l = moment_match(winner, loser)
        before = winner / (winner + loser)
        after = new_w / (new_w + new_l)
        assert after >= before - 1e-12
        assert 0.0 <= after <= 1.0

    @given(shapes_st, shapes_st)
    @settings(max_examples=100, deadline=None)
    def test_loser_posterior_mean_never_increases(self, winner, loser):
        new_w, new_l = moment_match(winner, loser)
        before = loser / (winner + loser)
        after = new_l / (new_w + new_l)
        assert after <= before + 1e-12
        assert 0.0 <= after <= 1.0


class TestPairError:
    @given(shapes_st, shapes_st)
    @settings(max_examples=100, deadline=None)
    def test_is_a_probability_and_complements(self, a, b):
        e_ij = float(pair_error(a, b))
        e_ji = float(pair_error(b, a))
        assert 0.0 <= e_ij <= 1.0
        np.testing.assert_allclose(e_ij + e_ji, 1.0, atol=1e-12)

    @given(shapes_st)
    @settings(max_examples=60, deadline=None)
    def test_equal_shapes_are_a_coin_flip(self, a):
        np.testing.assert_allclose(float(pair_error(a, a)), 0.5, atol=1e-12)


def _full_tensor_scores(A: np.ndarray) -> np.ndarray:
    """The scorer before its memo: every cell from scratch, each row sum
    one reduction over a ``(K, K, K)`` block.  Same arithmetic as
    :func:`score_pairs`, so the bits must match, not just the values."""
    S2 = A[:, None] + A[None, :]
    P = A[:, None] / S2
    W = (A[:, None] + 1.0) * S2 / (S2 + 1.0)
    L = A[:, None] * S2 / (S2 + 1.0)
    E = _sym_error(A[:, None], A[None, :])
    R = E.sum(axis=1)
    cur = R[:, None] + R[None, :] - 1.0 - E

    def row_sums(V):
        block = _sym_error(V[:, :, None], A[None, None, :]).sum(axis=2)
        return block - _sym_error(V, A[:, None]) - _sym_error(V, A[None, :])

    win = row_sums(W) + row_sums(L).T + _sym_error(W, L.T)
    scores = P * win + (1.0 - P) * win.T - cur
    np.fill_diagonal(scores, np.nan)
    return scores


def _round_of_verdicts(data, shapes: np.ndarray) -> np.ndarray:
    """``shapes`` after moment-matching 0–3 disjoint drawn pairs."""
    shapes = shapes.copy()
    order = data.draw(st.permutations(range(shapes.size)))
    pairs = data.draw(st.integers(min_value=0, max_value=min(3, shapes.size // 2)))
    for t in range(pairs):
        w, l = order[2 * t], order[2 * t + 1]
        shapes[w], shapes[l] = moment_match(shapes[w], shapes[l])
    return shapes


class TestScorePairs:
    @given(shape_vectors, st.sampled_from((0, 1, 4)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, shapes, updates, data):
        # Fresh (0) or after ``updates`` rounds of verdicts, each scored
        # through one memo, so the scored shapes reach it incrementally.
        memo = LookaheadMemo(shapes.size)
        for _ in range(updates):
            score_pairs(shapes, memo=memo)
            shapes = _round_of_verdicts(data, shapes)
        fast = score_pairs(shapes, memo=memo)
        slow = score_pairs_reference(shapes)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-11)

    @given(
        st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=12),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_matches_a_fresh_call_bit_for_bit(self, values, data):
        # Each step: verdicts on 0–3 disjoint pairs, then a random set of
        # pairs is bought.  The memo's scores on the pairs still
        # available must carry the exact bits of a fresh call and of the
        # full-tensor form; every other cell is NaN.
        shapes = np.asarray(values, dtype=np.float64)
        n = shapes.size
        available = np.triu(np.ones((n, n), dtype=bool), 1)
        memo = LookaheadMemo(n)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            scores = score_pairs(shapes, available, memo)
            rows = available | available.T
            for fresh in (score_pairs(shapes), _full_tensor_scores(shapes)):
                np.testing.assert_array_equal(
                    scores[rows].view(np.uint64), fresh[rows].view(np.uint64)
                )
            assert np.isnan(scores[~rows]).all()
            shapes = _round_of_verdicts(data, shapes)
            ii, jj = np.nonzero(available)
            bought = data.draw(st.lists(st.booleans(), min_size=ii.size, max_size=ii.size))
            available[ii[bought], jj[bought]] = False

    @given(shape_vectors)
    @settings(max_examples=40, deadline=None)
    def test_symmetric_with_nan_diagonal(self, shapes):
        scores = score_pairs(shapes)
        assert np.isnan(np.diag(scores)).all()
        off = ~np.eye(shapes.size, dtype=bool)
        np.testing.assert_allclose(scores[off], scores.T[off],
                                   rtol=1e-9, atol=1e-15)

    @given(shape_vectors)
    @settings(max_examples=40, deadline=None)
    def test_loss_is_finite_and_nonnegative(self, shapes):
        loss = ranking_loss(shapes)
        assert np.isfinite(loss)
        assert loss >= 0.0
