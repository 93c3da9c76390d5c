"""Judgment oracles — the simulated crowd.

An oracle answers pairwise-preference microtasks:
``draw_pairs(left, right, size, rng)`` returns a ``(len(left), size)``
matrix of independent worker preferences ``v(o_l, o_r)``, one row per
pair, whose sign points at the preferred item.  It is the one sampling
method an oracle implements; ``draw(i, j, size, rng)`` is row 0 of a
one-pair ``draw_pairs``.  ``draw_pairs(..., rounds=K)`` draws a *block*:
the ``(K, len(left), size)`` stack of ``K`` successive one-round calls,
value for value and draw for draw from ``rng``.  Every oracle here takes
it: most loop over the one-round call, and :class:`HistogramOracle` and
:class:`UserTableOracle` draw the block in one call.  Only those two are
``replayable``, so a racing pool draws rounds ahead only from them.  An
unknown item id raises :class:`~repro.errors.OracleError` before any judgment is drawn
(:class:`ItemRows` does that lookup).  The concrete oracles reproduce
exactly the simulation rules of §6.1:

* :class:`HistogramOracle` — sample each item's rating from its own vote
  histogram and return the difference (IMDb, Book).
* :class:`UserTableOracle` — pick a random user and return her rating
  difference for the pair (Jester).
* :class:`RecordDatabaseOracle` — sample a stored judgment record of the
  pair (Photo).
* :class:`LatentScoreOracle` — Gaussian preferences centred on the true
  score gap with a worker-noise model (PeopleAge, synthetic tests).
* :class:`BinaryOracle` — wrap any oracle into the pairwise *binary*
  judgment model: return only ``sign(v) ∈ {-1, +1}``, re-drawing exact
  zeros (the paper drops unidentifiable judgments).

Where the underlying data supports it, an oracle also has a ``rate``
method producing absolute *graded* judgments for the Hybrid baselines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping

import numpy as np

from ..errors import OracleError
from ..telemetry import get_registry
from .workers import GaussianNoise, WorkerNoise

__all__ = [
    "JudgmentOracle",
    "ItemRows",
    "LatentScoreOracle",
    "HistogramOracle",
    "UserTableOracle",
    "RecordDatabaseOracle",
    "BinaryOracle",
]


class JudgmentOracle(ABC):
    """Source of pairwise preference judgments for item pairs."""

    #: Support bounds ``(lo, hi)`` of a single preference value, or ``None``
    #: when unbounded.  The Hoeffding tester needs a bounded support.
    bounds: tuple[float, float] | None = None

    #: Whether ``draw_pairs`` draws a ``rounds=`` block in one call and a
    #: draw's only effect is on the generator it draws from (no log,
    #: counter or other state).  A racing pool then may draw rounds
    #: ahead, set the generator back and draw again only the rounds it
    #: keeps (:meth:`~repro.crowd.pool.RacingPool.round`).  A block drawn
    #: by looping over one-round calls pays a whole call per speculative
    #: round, so such an oracle stays ``False``.
    replayable = False

    @abstractmethod
    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
        rounds: int | None = None,
    ) -> np.ndarray:
        """Draw a ``(len(left), size)`` matrix of preferences, one row per
        pair ``(left[r], right[r])``; positive favours the left item.

        With ``rounds=K`` draw the ``(K, len(left), size)`` stack of ``K``
        such matrices, equal to ``K`` successive calls and leaving ``rng``
        in the same state.  An unknown item id raises
        :class:`OracleError` before any of ``rng`` is drawn.
        """

    def _looped_rounds(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
        rounds: int,
    ) -> np.ndarray:
        """The block form of :meth:`draw_pairs` as ``rounds`` one-round
        calls, stacked."""
        return np.stack(
            [self.draw_pairs(left, right, size, rng) for _ in range(rounds)]
        )

    def draw(self, i: int, j: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` preferences ``v(o_i, o_j)``; positive favours ``o_i``.

        Row 0 of a one-pair :meth:`draw_pairs`: the same values, and the
        same draws from ``rng``.
        """
        return self.draw_pairs(np.array([i]), np.array([j]), size, rng)[0]

    @property
    def value_range(self) -> float | None:
        """Width of the support, or ``None`` when unbounded."""
        if self.bounds is None:
            return None
        return self.bounds[1] - self.bounds[0]

    # Graded judgments -------------------------------------------------
    @property
    def supports_rating(self) -> bool:
        """Whether this oracle can answer absolute *graded* microtasks."""
        return False

    def rate(self, item: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` absolute graded judgments for ``item``."""
        raise OracleError(f"{type(self).__name__} does not support graded judgments")


class ItemRows:
    """Checked map from item ids to the rows of an oracle's table.

    Row ``r`` belongs to item ``ids[r]``.  When the ids are a permutation
    of ``0..n-1`` (every real dataset), a bulk lookup is one min/max range
    check and, unless each id is its own row, one gather; numpy would
    wrap a negative id, hence the check.  Other ids, and a batch holding
    an unknown id, take the per-item lookup, which raises
    :class:`OracleError` for an id the table lacks.
    """

    def __init__(self, ids: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        self._row_of = {item: row for row, item in enumerate(ids.tolist())}
        if len(self._row_of) != ids.size:
            raise OracleError("item ids must be unique")
        self._n = ids.size
        #: Whether the ids are exactly ``0..n-1`` in some order.
        self.dense = bool(ids.size and ids.min() >= 0 and ids.max() == ids.size - 1)
        # Dense ids out of row order map through this id -> row table.
        self._table: np.ndarray | None = None
        if self.dense and np.any(ids != np.arange(ids.size)):
            self._table = np.empty(ids.size, dtype=np.intp)
            self._table[ids] = np.arange(ids.size, dtype=np.intp)

    def row(self, item: int) -> int:
        """The row of ``item``."""
        try:
            return self._row_of[int(item)]
        except KeyError:
            raise OracleError(f"unknown item {item}") from None

    def pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The rows of ``left`` followed by the rows of ``right``."""
        ids = np.concatenate(
            (np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64))
        )
        if self.dense and (
            not ids.size
            or (
                np.minimum.reduce(ids) >= 0
                and np.maximum.reduce(ids) < self._n
            )
        ):
            return ids if self._table is None else self._table[ids]
        return np.asarray([self.row(i) for i in ids.tolist()], dtype=np.intp)


class LatentScoreOracle(JudgmentOracle):
    """Gaussian preferences centred on the true score gap.

    ``v(o_i, o_j) ~ Δs_{i,j} + noise`` where ``Δs`` is the hidden score
    difference and ``noise`` comes from a :class:`WorkerNoise` model —
    the textbook instantiation of the §3.1 assumption
    ``v(o_i, o_j) ~ N(μ_{i,j}, σ²_{i,j})``.
    """

    def __init__(
        self,
        scores: Mapping[int, float] | np.ndarray,
        noise: WorkerNoise | None = None,
    ) -> None:
        if isinstance(scores, np.ndarray):
            scores = dict(enumerate(scores.tolist()))
        self._items = ItemRows(list(scores))
        self._scores = np.asarray(list(scores.values()), dtype=np.float64)
        self._noise = noise if noise is not None else GaussianNoise(1.0)

    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
        rounds: int | None = None,
    ) -> np.ndarray:
        if rounds is not None:
            return self._looped_rounds(left, right, size, rng, rounds)
        scores = self._scores[self._items.pairs(left, right)]
        m = len(scores) // 2
        gaps = (scores[:m] - scores[m:])[:, None]
        if self._items.dense:
            return gaps + self._noise.sample(m * size, rng).reshape(m, size)
        # Sparse ids draw the noise pair by pair, the stream they always
        # had: a noise model such as CarelessWorkerNoise gives another
        # stream from one bulk call.
        noise = [self._noise.sample(size, rng) for _ in range(m)]
        return gaps + np.asarray(noise, dtype=np.float64).reshape(m, size)

    @property
    def supports_rating(self) -> bool:
        return True

    def rate(self, item: int, size: int, rng: np.random.Generator) -> np.ndarray:
        return self._scores[self._items.row(item)] + self._noise.sample(size, rng)


class HistogramOracle(JudgmentOracle):
    """Preferences from per-item rating histograms (IMDb / Book rule).

    Each item carries a probability mass function over a shared rating
    ``support``.  A microtask samples one rating per item independently and
    answers their difference, exactly the simulation of §3.2/§6.1.
    """

    replayable = True

    def __init__(self, support: np.ndarray, pmf_by_item: Mapping[int, np.ndarray]) -> None:
        support = np.asarray(support, dtype=np.float64)
        if support.ndim != 1 or len(support) < 2:
            raise OracleError("support must be a 1-D grid with >= 2 points")
        if not np.all(np.diff(support) > 0):
            raise OracleError("support must be strictly increasing")
        self._support = support
        ids = sorted(int(i) for i in pmf_by_item)
        self._items = ItemRows(ids)
        pmfs = []
        for item in ids:
            pmf = np.asarray(pmf_by_item[item], dtype=np.float64)
            if pmf.shape != support.shape:
                break
            pmfs.append(pmf)
        # One array pass checks every pmf before the first misshapen one;
        # the first bad item, in id order, names the error.
        rows = np.array(pmfs).reshape(len(pmfs), len(support))
        bad = np.any(rows < 0, axis=1) | ~np.isclose(rows.sum(axis=1), 1.0, atol=1e-8)
        if bad.any():
            raise OracleError(f"pmf of item {ids[int(np.argmax(bad))]} is not a distribution")
        if len(pmfs) < len(ids):
            raise OracleError(f"pmf of item {ids[len(pmfs)]} does not match the support")
        cdf = np.cumsum(rows, axis=1)
        cdf[:, -1] = 1.0  # guard against round-off at the top
        self._cdf = cdf
        # The sampler's view (see _rating_indices): one row per support
        # point but the last, one column per item.
        self._points = np.ascontiguousarray(cdf[:, :-1].T)
        span = float(support[-1] - support[0])
        self.bounds = (-span, span)

    @property
    def support(self) -> np.ndarray:
        """The shared rating grid."""
        return self._support

    def mean_rating(self, item: int) -> float:
        """Expected rating of ``item`` under its histogram."""
        row = self._items.row(item)
        pmf = np.diff(np.concatenate(([0.0], self._cdf[row])))
        return float(pmf @ self._support)

    def _rating_indices(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Support indices of the uniforms ``u``, shape ``(sides, lanes,
        size)`` or a ``(rounds, sides, lanes, size)`` block of them, under
        the CDFs of ``rows``, shape ``(sides, lanes)``.

        The index of a uniform is the number of its row's CDF points
        below it.  Lane ``l`` of each side shifts its points and its
        uniforms by ``2·l``, and the count compares the shifted values:
        the same floating-point comparisons as a side-``left``
        ``searchsorted`` over that side's lane-shifted, flattened CDFs
        (the sampler's historical form), whose sorted array holds every
        point of earlier lanes below the query and every point of later
        lanes above it.  Counting along the leading support axis reads
        each point once per uniform instead of binary-searching the
        flattened array.  A row's last point, ``1 + 2·l``, is never below
        a shifted uniform, so it is not stored.  Every round compares
        its uniforms with the same shifted points.  ``u`` is shifted in
        place.
        """
        shift = 2.0 * np.arange(u.shape[-2])[:, None]
        u += shift
        points = self._points[:, rows][..., None]
        points += shift
        if u.ndim == 4:
            points = points[:, None]
        return (points < u).sum(axis=0)

    def _sample_ratings(
        self, rows: np.ndarray, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Inverse-CDF sample: a ``(len(rows), size)`` matrix of ratings,
        row ``r`` shifted as lane ``r`` (see :meth:`_rating_indices`)."""
        u = rng.random((len(rows), size))
        return self._support[self._rating_indices(rows[None], u[None])[0]]

    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
        rounds: int | None = None,
    ) -> np.ndarray:
        rows = self._items.pairs(left, right)
        # One uniform call for both sides yields the same stream as
        # sampling the left rows and then the right rows, and one call
        # for a block the same stream as a call per round.  Each side
        # keeps its own lanes, shifted from 0: the shifted sums round
        # differently at larger shifts, so every index matches.
        m = len(rows) // 2
        if rounds is None:
            u = rng.random((2 * m, size)).reshape(2, m, size)
        else:
            u = rng.random((rounds, 2 * m, size)).reshape(rounds, 2, m, size)
        idx = self._rating_indices(rows.reshape(2, m), u)
        support = self._support
        return support[idx[..., 0, :, :]] - support[idx[..., 1, :, :]]

    @property
    def supports_rating(self) -> bool:
        return True

    def rate(self, item: int, size: int, rng: np.random.Generator) -> np.ndarray:
        rows = np.asarray([self._items.row(item)])
        return self._sample_ratings(rows, size, rng)[0]


class UserTableOracle(JudgmentOracle):
    """Preferences from a dense user × item rating table (Jester rule).

    A microtask picks a uniformly random user and answers the difference of
    her ratings for the two items, so judgments are *within-user* paired
    differences exactly as in §6.1.
    """

    replayable = True

    def __init__(self, ratings: np.ndarray, item_ids: np.ndarray | None = None) -> None:
        ratings = np.asarray(ratings, dtype=np.float64)
        if ratings.ndim != 2 or ratings.shape[0] < 1 or ratings.shape[1] < 2:
            raise OracleError("ratings must be a (users × items) matrix")
        if not np.all(np.isfinite(ratings)):
            raise OracleError("ratings must be finite (the table is dense)")
        self._ratings = ratings
        if item_ids is None:
            item_ids = np.arange(ratings.shape[1])
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if len(item_ids) != ratings.shape[1]:
            raise OracleError("item_ids must align with the rating columns")
        self._items = ItemRows(item_ids)  # item -> rating column
        lo, hi = float(ratings.min()), float(ratings.max())
        self.bounds = (lo - hi, hi - lo)

    @property
    def n_users(self) -> int:
        """Number of simulated users in the table."""
        return self._ratings.shape[0]

    def mean_rating(self, item: int) -> float:
        """Average rating of ``item`` across all users."""
        return float(self._ratings[:, self._items.row(item)].mean())

    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
        rounds: int | None = None,
    ) -> np.ndarray:
        # Row 0 holds the left items' columns, row 1 the right items'.
        cols = self._items.pairs(left, right).reshape(2, -1, 1)
        ratings = self._ratings
        shape = (cols.shape[1], size) if rounds is None else (rounds, cols.shape[1], size)
        users = rng.integers(0, ratings.shape[0], size=shape)
        return ratings[users, cols[0]] - ratings[users, cols[1]]

    @property
    def supports_rating(self) -> bool:
        return True

    def rate(self, item: int, size: int, rng: np.random.Generator) -> np.ndarray:
        col = self._items.row(item)
        users = rng.integers(0, self.n_users, size=size)
        return self._ratings[users, col]


class RecordDatabaseOracle(JudgmentOracle):
    """Preferences sampled from a pre-collected judgment database (Photo rule).

    The database holds, for every unordered pair, a pool of recorded worker
    preferences; a microtask samples one record uniformly with replacement.
    Internally records are packed into a flat array with per-pair offsets so
    batched sampling stays vectorized.
    """

    def __init__(self, records: Mapping[tuple[int, int], np.ndarray]) -> None:
        if not records:
            raise OracleError("the record database is empty")
        flat: list[np.ndarray] = []
        offsets: dict[tuple[int, int], tuple[int, int]] = {}
        cursor = 0
        for pair, values in records.items():
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise OracleError(f"self-pair ({i}, {i}) in the record database")
            values = np.asarray(values, dtype=np.float64)
            if values.ndim != 1 or values.size == 0:
                raise OracleError(f"pair ({i}, {j}) has no records")
            key = (i, j) if i < j else (j, i)
            canonical = values if i < j else -values
            if key in offsets:
                raise OracleError(f"pair {key} appears twice in the record database")
            flat.append(canonical)
            offsets[key] = (cursor, len(values))
            cursor += len(values)
        self._values = np.concatenate(flat)
        self._offsets = offsets
        lo, hi = float(self._values.min()), float(self._values.max())
        span = max(abs(lo), abs(hi))
        self.bounds = (-span, span)

    def _slot(self, i: int, j: int) -> tuple[int, int, float]:
        i, j = int(i), int(j)
        key, sign = ((i, j), 1.0) if i < j else ((j, i), -1.0)
        try:
            start, count = self._offsets[key]
        except KeyError:
            raise OracleError(f"no records for pair ({i}, {j})") from None
        return start, count, sign

    def record_count(self, i: int, j: int) -> int:
        """Number of stored records for the pair ``{i, j}``."""
        _, count, _ = self._slot(i, j)
        return count

    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
        rounds: int | None = None,
    ) -> np.ndarray:
        if rounds is not None:
            return self._looped_rounds(left, right, size, rng, rounds)
        slots = [self._slot(int(i), int(j)) for i, j in zip(left, right)]
        starts = np.asarray([s[0] for s in slots])
        counts = np.asarray([s[1] for s in slots])
        signs = np.asarray([s[2] for s in slots])
        idx = starts[:, None] + rng.integers(0, counts[:, None], size=(len(slots), size))
        return signs[:, None] * self._values[idx]


class BinaryOracle(JudgmentOracle):
    """Wrap any oracle into the pairwise *binary* judgment model.

    Workers answer only "which is better": ``v_b = sign(v) ∈ {-1, +1}``.
    Exact zeros are unidentifiable and are re-drawn, matching the paper's
    "this judgment is dropped" rule (the dropped task is not charged — the
    platform would not accept a blank answer).
    """

    #: Re-draw attempts before concluding the pair never separates.
    MAX_REDRAWS = 64

    def __init__(self, base: JudgmentOracle) -> None:
        self._base = base
        self.bounds = (-1.0, 1.0)
        #: Judgments that came back exactly tied and were re-asked.  A real
        #: platform pays for those answers too; cost models that account
        #: for the waste (Table 3) read this counter.
        self.wasted = 0
        self._instrument_cache: tuple | None = None

    def _wasted_counter(self):
        """The hot-path counter handle, re-bound when the registry changes."""
        registry = get_registry()
        cached = self._instrument_cache
        if cached is None or cached[0] is not registry:
            cached = (registry, registry.counter("oracle_wasted_judgments_total"))
            self._instrument_cache = cached
        return cached[1]

    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
        rounds: int | None = None,
    ) -> np.ndarray:
        if rounds is not None:
            return self._looped_rounds(left, right, size, rng, rounds)
        out = np.sign(self._base.draw_pairs(left, right, size, rng))
        for _ in range(self.MAX_REDRAWS):
            rows, cols = np.nonzero(out == 0)
            if rows.size == 0:
                return out
            self.wasted += int(rows.size)
            self._wasted_counter().inc(int(rows.size))
            redraw = np.sign(
                self._base.draw_pairs(
                    np.asarray(left)[rows], np.asarray(right)[rows], 1, rng
                )[:, 0]
            )
            out[rows, cols] = redraw
        raise OracleError("some pairs keep producing exactly-tied judgments")
