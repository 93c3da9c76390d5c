"""The histogram sampler counts exactly what the binary search found.

:class:`HistogramOracle` finds each rating index by counting, along a
leading support axis, the lane-shifted CDF points below the lane-shifted
uniform.  Its former form ran a side-``left`` ``searchsorted`` over each
side's lane-shifted, flattened CDFs; :func:`searchsorted_indices` keeps
that form as the reference.  Both compare ``cdf + 2·lane`` with
``u + 2·lane``, so they must agree index for index even where the shift
rounds a uniform onto a CDF point.  The property draws pmfs with
zero-mass points and point masses, up to 2,000 lanes, and uniforms
placed on (and one ulp either side of) the rows' CDF points.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crowd.oracle import HistogramOracle

N_ITEMS = 40


def searchsorted_indices(
    oracle: HistogramOracle, rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The former sampler: one ``searchsorted`` per side over that side's
    lane-shifted, flattened CDFs.  ``rows`` is ``(2, m)`` and ``u`` the
    ``(2, m, size)`` uniforms; returns the ``(2, m, size)`` indices."""
    _, m, size = u.shape
    n_support = len(oracle.support)
    lanes = np.arange(m)[:, None]
    shift = 2.0 * lanes
    u = u + shift
    cdf = oracle._cdf[rows] + shift
    return np.stack(
        [
            cdf[side].ravel().searchsorted(u[side].ravel()).reshape(m, size)
            - lanes * n_support
            for side in (0, 1)
        ]
    )


class Uniforms:
    """An RNG stand-in whose ``random`` returns prepared uniforms."""

    def __init__(self, u: np.ndarray) -> None:
        self._u = u

    def random(self, shape):
        return self._u.reshape(shape).copy()


def _oracle(n_support: int, rng: np.random.Generator) -> HistogramOracle:
    """Items whose pmfs hold zero-mass points, point masses and spread
    mass, on an irregular support."""
    support = np.cumsum(rng.uniform(0.5, 2.0, n_support))
    pmfs = {}
    for item in range(N_ITEMS):
        kind = item % 3
        if kind == 0:  # a point mass
            weights = np.zeros(n_support)
            weights[rng.integers(n_support)] = 1.0
        elif kind == 1:  # small integer weights, many of them zero
            weights = rng.integers(0, 3, n_support).astype(float)
            if not weights.any():
                weights[rng.integers(n_support)] = 1.0
        else:  # spread mass with a zeroed run
            weights = rng.random(n_support)
            start = rng.integers(n_support)
            weights[start : start + rng.integers(0, n_support)] = 0.0
            if not weights.any():
                weights[start] = 1.0
        pmfs[item] = weights / weights.sum()
    return HistogramOracle(support, pmfs)


def _placed_uniforms(
    oracle: HistogramOracle, rows: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``(2, m, size)`` uniforms in [0, 1): a quarter random, the rest on
    one of their row's CDF points or one ulp below or above it."""
    u = rng.random(rows.shape + (size,))
    points = oracle._cdf[rows]  # (2, m, n_support)
    pick = rng.integers(0, points.shape[-1], u.shape)
    on = np.take_along_axis(points, pick, axis=-1)
    mode = rng.integers(0, 4, u.shape)
    placed = np.select(
        [mode == 1, mode == 2, mode == 3],
        [on, np.nextafter(on, 0.0), np.nextafter(on, 1.0)],
        u,
    )
    return np.where(placed < 1.0, placed, u)


@settings(max_examples=40, deadline=None)
@given(
    n_support=st.integers(2, 12),
    lanes=st.one_of(st.integers(1, 16), st.integers(1_000, 2_000)),
    size=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_support=10, lanes=2_000, size=3, seed=0)
@example(n_support=2, lanes=1, size=1, seed=1)
def test_counting_matches_searchsorted(n_support, lanes, size, seed):
    rng = np.random.default_rng(seed)
    oracle = _oracle(n_support, rng)
    left = rng.integers(0, N_ITEMS, lanes)
    right = rng.integers(0, N_ITEMS, lanes)
    rows = np.stack([left, right])
    u = _placed_uniforms(oracle, rows, size, rng)

    expected = searchsorted_indices(oracle, rows, u)
    np.testing.assert_array_equal(oracle._rating_indices(rows, u.copy()), expected)
    support = oracle.support
    np.testing.assert_array_equal(
        oracle.draw_pairs(left, right, size, Uniforms(u)),
        support[expected[0]] - support[expected[1]],
    )

    # Real uniforms: the same draw from the same stream, leaving the
    # generator where the former sampler left it.
    drawn, reference = (np.random.default_rng(seed + 1) for _ in range(2))
    values = oracle.draw_pairs(left, right, size, drawn)
    indices = searchsorted_indices(
        oracle, rows, reference.random((2 * lanes, size)).reshape(2, lanes, size)
    )
    np.testing.assert_array_equal(values, support[indices[0]] - support[indices[1]])
    assert drawn.bit_generator.state == reference.bit_generator.state
