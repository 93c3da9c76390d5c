"""Per-pair judgment bags, stored as one columnar log.

All human feedback is stored and reused (§5.3: "the results of comparisons
are always *reusable*").  The cache keys bags by the unordered pair and
normalizes the sign: a bag reads as ``v(o_a, o_b)`` with ``a < b``, so
both orientations of a pair share one bag.

Storage is columnar, so that folding racing rounds into the cache costs a
fixed number of array passes however many pairs the rounds touched:

* a **slot table** maps each canonical pair to a small integer slot id
  (callers that write the same pairs every round — the racing pool —
  resolve their slots once, with :meth:`JudgmentCache.slot_ids`).  A
  service namespace frees empty slots after evictions
  (:meth:`JudgmentCache._free_empty_slots`) and hands their ids to new
  pairs, so from then on every write or bulk read that passes ids
  checks them against the table's record of each slot's pair and looks
  up whichever no longer match;
* per-slot arrays hold each bag's running moments ``n``, ``Σv`` and
  ``Σv²``, so :meth:`JudgmentCache.moments` answers in O(1), and the
  bag's region of the log: where it starts and how many values it holds;
* an append-only **value log** holds the judgments themselves.  Every
  bag is the start of its region, in canonical orientation, so any read
  is a slice and a bulk read is one gather.  A write fills the region's
  free tail.  A bag that outgrows its region moves to a new region at
  the end of the log: exactly its size for a new bag (most bags are
  written once), a quarter more for a growing one, so moves cost O(1)
  per value amortized and idle room stays under a quarter of a bag.
  Abandoned regions are dead space, and the log is compacted once they
  exceed a quarter of the live values.

Writes only ever fill free space — a region's tail, or past the end of
the log — so arrays handed out by :meth:`JudgmentCache.bag` stay valid
and unchanged whatever is written, evicted or compacted later.

Racing rounds write behind: :meth:`JudgmentCache.defer_rows` queues each
round's batch and marks the slots it writes, and the queue is folded
into the log, in arrival order, only when a read may need it.  A
:meth:`JudgmentCache.replay` that reads no marked slot leaves it queued —
a comparison that races pairs no earlier group left queued pays no fold
— and every other read or direct write folds it first.

A bag only ever grows at its end until it is emptied, so a stopping
rule's scan of it never needs to start over: beside the moments, each
slot keeps a **replay frontier** (:meth:`JudgmentCache.replay`) — how
far the racing pools' rule has read the bag, the running sums there,
and the verdict if the rule reached one.  It is derived state: reset
wherever a bag is emptied, and never serialized.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator, Mapping
from itertools import compress, repeat, starmap
from operator import eq
from typing import NamedTuple

import numpy as np

__all__ = ["JudgmentCache", "Replay"]

_NO_SLOTS = np.empty(0, dtype=np.int64)

#: A stopping rule for :meth:`JudgmentCache.replay`:
#: ``(n, s1, s2, stage_var, reach) -> codes``.
Decide = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray
]


class Replay(NamedTuple):
    """What :meth:`JudgmentCache.replay` found, for the pairs ``rows``
    (indices into the pairs replayed) that have judgments: the judgments
    read (up to the first verdict), ``Σv`` oriented as each pair was
    asked, ``Σv²``, the verdict in that orientation (0: none up to the
    limit) and the frozen stage variance (NaN if none)."""

    rows: np.ndarray
    n: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    codes: np.ndarray
    stage_var: np.ndarray


#: The per-slot arrays and their types: running moments, where the bag's
#: region starts in the log and how many values it can hold, its rank in
#: first-write order, the slot's canonical pair, its replay frontier —
#: the judgments scanned (0: none), the running ``Σv`` there read in each
#: orientation, ``Σv²``, the frozen stage variance (Stein) and the verdict
#: (0: undecided), see :meth:`JudgmentCache.replay` — and whether a
#: :meth:`JudgmentCache.defer_rows` batch still queued writes to it.
_SLOT_ARRAYS = {
    "_n": np.int64,
    "_s1": np.float64,
    "_s2": np.float64,
    "_start": np.int64,
    "_cap": np.int64,
    "_born": np.int64,
    "_lo": np.int64,
    "_hi": np.int64,
    "_front": np.int64,
    "_front_s1": np.float64,
    "_front_s1r": np.float64,
    "_front_s2": np.float64,
    "_front_var": np.float64,
    "_front_code": np.int8,
    "_queued": np.bool_,
}


def _pair_keys(
    lefts: np.ndarray, rights: np.ndarray
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The canonical ``(lo, hi)`` key of each pair, and the lo and hi
    columns; the slot table is then read with one C-level ``map``."""
    lefts, rights = np.asarray(lefts), np.asarray(rights)
    lo, hi = np.minimum(lefts, rights), np.maximum(lefts, rights)
    return list(zip(lo.tolist(), hi.tolist())), lo, hi


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """``array`` with room for ``needed`` entries (amortized doubling)."""
    if needed <= array.shape[0]:
        return array
    out = np.zeros(max(needed, 2 * array.shape[0]), dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Exclusive running sum: where each of ``lengths`` begins."""
    out = np.empty(lengths.size, dtype=np.int64)
    if lengths.size:
        out[0] = 0
        np.cumsum(lengths[:-1], out=out[1:])
    return out


def _expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    ends = lengths.cumsum()
    return (starts + lengths - ends).repeat(lengths) + np.arange(
        ends[-1] if ends.size else 0, dtype=np.int64
    )


def _bands(rows: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """``rows`` in bands of similar ``lengths``, longest first: a band
    ends before the first row shorter than half its longest, so padding
    each band to its longest row at most doubles its cells."""
    order = np.argsort(-lengths, kind="stable")
    sizes = lengths[order].tolist()
    bands = []
    head = 0
    for at, size in enumerate(sizes):
        if 2 * size < sizes[head]:
            bands.append(rows[order[head:at]])
            head = at
    bands.append(rows[order[head:]])
    return bands


def _merged(pending: list[tuple]) -> tuple:
    """The queued :meth:`JudgmentCache.defer_rows` batches as one batch,
    rows in arrival order, values zero-padded to the widest batch."""
    lefts, rights, blocks, counts, slots = zip(*pending)
    heights = [len(batch) for batch in counts]
    values = np.zeros((sum(heights), max(block.shape[1] for block in blocks)))
    row = 0
    for block, height in zip(blocks, heights):
        values[row : row + height, : block.shape[1]] = block
        row += height
    return (
        np.concatenate(lefts),
        np.concatenate(rights),
        values,
        np.concatenate(counts),
        np.concatenate(slots),
    )


class _BagView:
    """One pair's bag as an inspection handle: ``size``, the running
    ``s1``/``s2`` (settable, for audits that corrupt them on purpose) and
    ``view()``."""

    __slots__ = ("_cache", "_slot")

    def __init__(self, cache: "JudgmentCache", slot: int) -> None:
        self._cache = cache
        self._slot = slot

    @property
    def size(self) -> int:
        return int(self._cache._n[self._slot])

    @property
    def s1(self) -> float:
        return float(self._cache._s1[self._slot])

    @s1.setter
    def s1(self, value: float) -> None:
        self._cache._s1[self._slot] = value

    @property
    def s2(self) -> float:
        return float(self._cache._s2[self._slot])

    @s2.setter
    def s2(self, value: float) -> None:
        self._cache._s2[self._slot] = value

    def view(self) -> np.ndarray:
        start = int(self._cache._start[self._slot])
        return self._cache._log[start : start + self.size]


class _BagMap(Mapping):
    """Read-only ``canonical pair -> bag`` mapping, in first-write order."""

    def __init__(self, cache: "JudgmentCache") -> None:
        self._cache = cache

    def __getitem__(self, key: tuple[int, int]) -> _BagView:
        cache = self._cache
        cache.settle()
        slot = cache._slot_of.get(key)
        if slot is None or not cache._n[slot]:
            raise KeyError(key)
        return _BagView(cache, slot)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._cache.pairs())

    def __len__(self) -> int:
        return self._cache.pair_count


class JudgmentCache:
    """Symmetric store of all judgments collected for each item pair."""

    def __init__(self) -> None:
        # Slot table: canonical pair -> slot id, for ids below _used (the
        # reverse map is _lo/_hi).  clear() keeps it; _free_empty_slots
        # frees ids for reuse, lowest first.
        self._slot_of: dict[tuple[int, int], int] = {}
        self._used = 0
        self._free: list[int] = []
        self._recycled = False  # set once an id is freed: ids may be stale
        for name, dtype in _SLOT_ARRAYS.items():
            setattr(self, name, np.zeros(64, dtype=dtype))
        # The stopping rule the frontiers were scanned with (see replay).
        self._front_key: object = None
        # Batches queued by :meth:`defer_rows`, folded in arrival order by
        # :meth:`_drain` before a read or direct write could see them; the
        # slots they write are marked in _queued.
        self._pending: list[tuple] = []
        self._reset_log()

    def _reset_log(self) -> None:
        self._log = np.empty(1024, dtype=np.float64)
        self._log_size = 0
        self._dead = 0  # log values in regions no bag owns any more
        self._total = 0
        self._births = 0  # ranks handed out in first-write order

    @staticmethod
    def _key(i: int, j: int) -> tuple[tuple[int, int], float]:
        """Canonical key and the sign mapping ``v(i, j) -> stored value``."""
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"cannot compare item {i} with itself")
        return ((i, j), 1.0) if i < j else ((j, i), -1.0)

    # ------------------------------------------------------------------
    # slot table
    # ------------------------------------------------------------------
    def slot_ids(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Slot ids of the pairs ``(lefts[r], rights[r])``, creating any
        that are new.  Both orientations of a pair share one slot.

        A caller that writes the same pairs repeatedly resolves them once
        and passes the ids to :meth:`defer_rows` / :meth:`replay`.
        Ids that go stale (see :meth:`_free_empty_slots`) are detected
        and looked up again there, so passing them is always safe.
        """
        keys, lo, hi = _pair_keys(lefts, rights)
        slot_of = self._slot_of
        found = list(map(slot_of.get, keys, repeat(-1)))
        if -1 not in found:
            return np.asarray(found, dtype=np.int64)
        # No stored pair is a self-pair, so a self-pair here is new.
        if any(starmap(eq, keys)):
            item = next(i for i, j in keys if i == j)
            raise ValueError(f"cannot compare item {item} with itself")
        # New pairs take slots in order of first appearance: freed ids
        # first, lowest first, then ids never used.
        new = dict.fromkeys(compress(keys, map((-1).__eq__, found)))
        free = self._free
        reuse = min(len(free), len(new))
        slots = free[len(free) - reuse :][::-1]
        del free[len(free) - reuse :]
        used = self._used + len(new) - reuse
        slots.extend(range(self._used, used))
        slot_of.update(zip(new, slots))
        if used > self._n.shape[0]:
            for name in _SLOT_ARRAYS:
                setattr(self, name, _grown(getattr(self, name), used))
        self._used = used
        if len(new) < len(keys):  # some pairs existed or repeat
            slots = list(map(slot_of.get, keys))
        out = np.asarray(slots, dtype=np.int64)
        self._lo[out] = lo  # rewrites the same pair where a slot existed
        self._hi[out] = hi
        return out

    def _find_slots(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Existing slot ids of the pairs, ``-1`` where a pair has none."""
        keys, _, _ = _pair_keys(lefts, rights)
        return np.asarray(
            list(map(self._slot_of.get, keys, repeat(-1))), dtype=np.int64
        )

    def _checked_slots(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        slots: np.ndarray,
        *,
        create: bool,
    ) -> np.ndarray:
        """``slots`` with every entry that does not name its pair looked
        up again: ``-1``, and ids gone stale since the caller resolved
        them.  ``create`` makes slots for new pairs; otherwise they read
        ``-1``."""
        if not self._recycled:  # every id handed out so far is valid
            if not slots.size or np.minimum.reduce(slots) >= 0:
                return slots
        valid = slots >= 0
        if self._recycled:
            valid &= slots < self._used
            probe = np.where(valid, slots, 0)
            valid &= self._lo[probe] == np.minimum(lefts, rights)
            valid &= self._hi[probe] == np.maximum(lefts, rights)
        if valid.all():
            return slots
        stale = np.flatnonzero(~valid)
        lookup = self.slot_ids if create else self._find_slots
        slots = slots.copy()
        slots[stale] = lookup(lefts[stale], rights[stale])
        return slots

    def _sizes(self, slots: np.ndarray) -> np.ndarray:
        """Bag sizes of ``slots`` (0 for the ``-1`` of an unknown pair)."""
        sizes = self._n[slots]
        sizes[slots < 0] = 0
        return sizes

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def bag(self, i: int, j: int) -> np.ndarray:
        """All stored judgments oriented as ``v(o_i, o_j)`` (copy-free when
        the orientation is canonical)."""
        if self._pending:
            self._drain()
        key, sign = self._key(i, j)
        slot = self._slot_of.get(key)
        if slot is None:
            return np.empty(0, dtype=np.float64)
        start = int(self._start[slot])
        values = self._log[start : start + int(self._n[slot])]
        return values if sign > 0 else -values

    def replay(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        limit: int,
        key: Hashable,
        decide: Decide,
        *,
        slots: np.ndarray,
    ) -> Replay | None:
        """Run a stopping rule over the first ``limit`` judgments of many
        pairs, each bag read from where the last replay of it stopped.

        ``decide(n, s1, s2, stage_var, reach)`` is the rule: given a
        ``(rows × width)`` block of a scan's cumulative moments — sample
        counts, ``Σv`` and ``Σv²`` in the canonical orientation — and
        each row's count of valid columns ``reach``, it returns the
        block's decision codes (``+1``/``-1``/``0``, already 0 below the
        cold-start workload).  ``stage_var`` holds each row's frozen
        stage variance (NaN until the first stage completes), and a rule
        that freezes one at a column of the block writes it there.  The
        rule must be odd in the sign of the judgments: flipping every
        value flips every code.  ``key`` names the rule; every frontier
        was scanned with one key, and another key starts them over.

        Each slot's frontier holds how far its bag was scanned, the sums
        there in both orientations (exact cancellation gives ``+0.0`` in
        both, so one is not always the negation of the other), the stage
        variance and the verdict.  A pair's replay then takes one of
        three ways:

        * a verdict at or below ``limit`` answers at once;
        * an undecided bag is scanned only past its frontier, one
          sequential ``np.add.accumulate`` seeded with the stored sums —
          bit for bit the sums of a scan from the first judgment, since a
          fresh bag's seed is ``-0.0``, the additive identity — and the
          new frontier is written back;
        * a frontier past ``limit`` keeps no sums at the limit, so the bag
          is scanned from its first judgment up to the limit and the
          frontier, which lies further, is left as it is.

        Returns ``None`` when no pair has a judgment, else the
        :class:`Replay` of the pairs that have, in pair order.
        ``slots`` are the pairs' ids from :meth:`slot_ids`: they skip the
        per-pair key lookup, and let the replay leave queued
        :meth:`defer_rows` batches queued when none of them writes to a
        pair it reads.
        """
        if self._pending and self._reads_queued(slots):
            self._drain()
        lefts = np.asarray(lefts)
        rights = np.asarray(rights)
        slots = self._checked_slots(lefts, rights, slots, create=False)
        return self._replay(slots, lefts > rights, limit, key, decide)

    def _reads_queued(self, slots: np.ndarray) -> bool:
        """Whether a replay of ``slots`` may read a bag that a queued batch
        writes to.  True whenever that cannot be told from the marks: for
        an id of ``-1``, or once slot ids are recycled (a queued id may
        name another pair)."""
        if self._recycled:
            return True
        if not slots.size:
            return False
        return bool(np.minimum.reduce(slots) < 0 or self._queued[slots].any())

    def _replay(
        self,
        slots: np.ndarray,
        flips: np.ndarray,
        limit: int,
        key: Hashable,
        decide: Decide,
    ) -> Replay | None:
        """:meth:`replay` for resolved ``slots`` (``-1``: no bag)."""
        reach = self._sizes(slots)
        np.minimum(reach, limit, out=reach)
        rows = reach.nonzero()[0]
        if not rows.size:  # no pair has a bag: touch no frontier
            return None
        if key != self._front_key:  # scanned with another rule: start over
            self._reset_frontier(slice(None, self._used))
            self._front_key = key
        ids = slots[rows]
        reach = reach[rows]
        front = [column[ids] for column in self._frontier()]
        seen, code, s1, s1r, s2, stage_var = front
        # A frontier past this reader's limit keeps no sums at the limit:
        # such a bag is read from an empty frontier and not written back.
        beyond = seen > reach
        seen[beyond] = 0
        # An empty frontier has read nothing: no verdict, sums of -0.0 and
        # no stage variance (its other columns are left from an old bag).
        empty = seen == 0
        if empty.any():
            code[empty] = 0
            s1[empty] = s1r[empty] = s2[empty] = -0.0
            stage_var[empty] = np.nan
        scan = ((code == 0) & (seen < reach)).nonzero()[0]
        if scan.size:
            for band in _bands(scan, reach[scan] - seen[scan]):
                self._scan(band, ids, reach, decide, front)
            keep = scan[~beyond[scan]]
            for column, values in zip(self._frontier(), front):
                column[ids[keep]] = values[keep]
        flips = flips[rows]
        if flips.any():
            s1 = np.where(flips, s1r, s1)
            code = np.where(flips, -code, code)
        return Replay(rows, seen, s1, s2, code, stage_var)

    def _frontier(self) -> tuple[np.ndarray, ...]:
        """The frontier columns: judgments scanned, verdict, ``Σv`` read
        each way round, ``Σv²`` and stage variance."""
        return (
            self._front,
            self._front_code,
            self._front_s1,
            self._front_s1r,
            self._front_s2,
            self._front_var,
        )

    def _reset_frontier(self, slots: np.ndarray | slice | int) -> None:
        """Reset the frontier of ``slots`` to a fresh slot's: every
        column, so a recycled id reads bit for bit as a new one."""
        for column in self._frontier():
            column[slots] = 0

    def _scan(
        self,
        band: np.ndarray,
        ids: np.ndarray,
        reach: np.ndarray,
        decide: Decide,
        front: list[np.ndarray],
    ) -> None:
        """Advance the ``band`` rows of a :meth:`replay` (bags ``ids``)
        from their frontier ``front`` to their first verdict or their
        ``reach``, updating ``front`` in place."""
        seen, code, s1, s1r, s2, stage_var = front
        begin = seen[band]
        todo = reach[band] - begin
        width = int(np.maximum.reduce(todo))
        columns = np.arange(width + 1)
        # One window per bag from its frontier (clipped to the log),
        # zeroed past the bag's reach, behind a seed column.
        window = (self._start[ids[band]] + begin)[:, None] + columns[:width]
        np.minimum(window, self._log_size - 1, out=window)
        values = self._log[window]
        values[columns[:width] >= todo[:, None]] = 0.0
        sums = np.empty((band.size, width + 1))
        sums[:, 0] = s1[band]
        sums[:, 1:] = values
        np.add.accumulate(sums, axis=1, out=sums)
        squares = np.empty((band.size, width + 1))
        squares[:, 0] = s2[band]
        np.square(values, out=squares[:, 1:])
        np.add.accumulate(squares, axis=1, out=squares)
        var = stage_var[band]
        counts = begin[:, None] + columns[1:]
        codes = decide(counts, sums[:, 1:], squares[:, 1:], var, todo)

        # The extra last column is a sentinel, so a row's first deciding
        # cell is its argmax; a row decides when that cell lies within
        # its reach, and otherwise stops at its reach.
        hits = np.empty((band.size, width + 1), dtype=bool)
        hits[:, width] = True
        np.not_equal(codes, 0, out=hits[:, :width])
        first = hits.argmax(axis=1)
        decided = first < todo
        last = np.where(decided, first, todo - 1)
        row = np.arange(band.size)
        end_s1 = sums[row, last + 1]
        seen[band] = begin + last + 1
        code[band] = np.where(decided, codes[row, last], 0)
        s1[band] = end_s1
        s2[band] = squares[row, last + 1]
        stage_var[band] = var
        # Read the other way round, the sum is the negation, except where
        # it is zero: x + (-x) is +0.0 in either orientation.
        back = np.negative(end_s1)
        zero = (end_s1 == 0.0).nonzero()[0]
        if zero.size:
            flipped = np.empty((zero.size, width + 1))
            flipped[:, 0] = s1r[band[zero]]
            np.negative(values[zero], out=flipped[:, 1:])
            np.add.accumulate(flipped, axis=1, out=flipped)
            back[zero] = flipped[np.arange(zero.size), last[zero] + 1]
        s1r[band] = back

    def moments(self, i: int, j: int) -> tuple[int, float, float]:
        """``(n, mean, variance)`` of the stored bag for ``(i, j)``.

        Variance is the unbiased sample variance (NaN below 2 samples).
        Used by reference-based sorting to seed the Thurstone order.  Reads
        the bag's running moments, so the call is O(1) regardless of bag
        size; the sign of the mean follows the requested orientation.
        """
        if self._pending:
            self._drain()
        key, sign = self._key(i, j)
        slot = self._slot_of.get(key)
        n = int(self._n[slot]) if slot is not None else 0
        if n == 0:
            return 0, float("nan"), float("nan")
        mean = float(self._s1[slot]) / n
        if n < 2:
            return n, sign * mean, float("nan")
        var = max((float(self._s2[slot]) - n * mean * mean) / (n - 1), 0.0)
        return n, sign * float(mean), float(var)

    @property
    def total_samples(self) -> int:
        """Total judgments stored across all pairs."""
        if self._pending:
            self._drain()
        return self._total

    @property
    def empty(self) -> bool:
        """Whether the cache holds no judgment, stored or queued.  Unlike
        :attr:`total_samples`, this leaves queued batches queued."""
        return not self._total and not any(
            batch[3].any() for batch in self._pending
        )

    @property
    def pair_count(self) -> int:
        """Number of pairs with at least one stored judgment."""
        if self._pending:
            self._drain()
        return self._live_pairs()

    def _live_pairs(self) -> int:
        return int(np.count_nonzero(self._n[: self._used]))

    def pairs(self) -> list[tuple[int, int]]:
        """All canonical pairs with stored judgments, in first-write order
        (a pair whose bag was evicted and refilled counts from the refill)."""
        if self._pending:
            self._drain()
        live = np.flatnonzero(self._n[: self._used])
        live = live[np.argsort(self._born[live])]
        return list(zip(self._lo[live].tolist(), self._hi[live].tolist()))

    @property
    def _bags(self) -> _BagMap:
        """Read-only ``pair -> bag`` view (``size``, ``s1``, ``s2``,
        ``view()``), for audits and parity tests."""
        return _BagMap(self)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, i: int, j: int, values: np.ndarray) -> None:
        """Store new judgments expressed in the ``v(o_i, o_j)`` orientation."""
        if self._pending:
            self._drain()
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        key, sign = self._key(i, j)
        slot = self._slot_of.get(key)
        if slot is None:
            slot = int(self.slot_ids(np.asarray([i]), np.asarray([j]))[0])
        self._extend(slot, values, sign < 0)
        self._compact_if_sparse()

    def _room(self, needed: int) -> np.ndarray:
        """The log, grown if needed to hold ``needed`` values.  It grows by
        a quarter rather than doubling: a service namespace holds millions
        of judgments, and doubling would leave up to half of them idle."""
        log = self._log
        if needed > log.shape[0]:
            grown = np.empty(
                max(needed, log.shape[0] + log.shape[0] // 4), dtype=np.float64
            )
            grown[: self._log_size] = log[: self._log_size]
            self._log = log = grown
        return log

    def _extend(self, slot: int, values: np.ndarray, flip: bool) -> None:
        """Append one chunk to ``slot``'s bag (``flip``: the chunk is
        oriented against the canonical order)."""
        width = values.size
        n = int(self._n[slot])
        start = int(self._start[slot])
        if n + width > self._cap[slot]:  # no room left: move the bag
            end = self._log_size
            cap = n + width + (n + width) // 4 if n else width
            self._room(end + cap)
            self._log[end : end + n] = self._log[start : start + n]
            self._dead += int(self._cap[slot])
            self._log_size = end + cap
            self._start[slot] = start = end
            self._cap[slot] = cap
        tail = self._log[start + n : start + n + width]
        if flip:
            np.negative(values, out=tail)
        else:
            tail[:] = values
        self._n[slot] = n + width
        if not n:
            self._born[slot] = self._births
            self._births += 1
        # Negation is exact, and Σ(-v) == -Σv bit for bit.
        s1 = float(values.sum())
        self._s1[slot] += -s1 if flip else s1
        self._s2[slot] += float(np.square(values).sum())
        self._total += width

    def defer_rows(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
        *,
        slots: np.ndarray,
    ) -> None:
        """Queue a padded matrix of judgments across many pairs for a later
        bulk apply: row ``r`` adds ``values[r, :counts[r]]`` to the bag of
        ``(lefts[r], rights[r])``, whose id from :meth:`slot_ids` is
        ``slots[r]``.

        The racing pool's per-round commit hands its consumed draws here:
        the round pays one list append and marks the slots it writes, and
        the accumulated batches are folded into the log only when a read
        may need them.  A :meth:`replay` that reads no marked slot leaves
        the queue as it is; every other read and direct-write entry point
        drains first, so no caller can observe a stale bag.  Deferral
        only moves the work in time — batches are applied in arrival
        order with moments bit-identical to an immediate :meth:`append`
        per row.

        Trusted internal path: rows are assumed well-formed (float64
        matrix, ``counts[r] <= values.shape[1]``).  The slot ids skip the
        per-row key lookup at drain time.
        """
        self._pending.append((lefts, rights, values, counts, slots))
        self._queued[slots] = True

    def settle(self) -> None:
        """Fold every deferred batch into the log right now.

        Reads drain automatically; this is for callers about to bypass
        the public read API (serializers, tests poking at internals).
        """
        if self._pending:
            self._drain()

    def _drain(self) -> np.ndarray:
        """Fold the deferred batches into the log, in arrival order.

        Every consumed row is one chunk.  Chunk moments come first:
        chunks are grouped by consumed width, and each group's stacked
        ``np.add.reduce(axis=1)`` sees the same reduction length the
        per-row ``values.sum()`` of :meth:`append` would — bit-identical
        sums in a few array passes.  ``np.add.at`` folds them into the
        slots in write order, so every running moment matches an eager
        row-by-row append.  Then the new chunks are stored after each
        touched bag's values in write order, once every bag without room
        for them has moved to a bigger region.  Returns the slot of every
        chunk, in write order.

        A racing group queues a few small batches between drains, so the
        fixed cost is kept to a few dozen array operations: a queue of
        one batch is used as it stands, and a longer one is merged into
        one zero-padded batch first.
        """
        pending = self._pending
        self._pending = []
        for batch in pending:
            self._queued[batch[4]] = False
        lefts, rights, values, counts, slots = (
            pending[0] if len(pending) == 1 else _merged(pending)
        )
        used = counts.nonzero()[0]
        if not used.size:
            return _NO_SLOTS
        if used.size < counts.size:  # rows that consumed nothing store nothing
            lefts, rights, values = lefts[used], rights[used], values[used]
            counts, slots = counts[used], slots[used]
        slots = self._checked_slots(lefts, rights, slots, create=True)
        flips = lefts > rights

        # Chunk moments: one stacked reduction per consumed width, over the
        # (chunks, width) block of the rows of that width.  When every row
        # has one width the block is the batch's leading columns as they
        # stand: each row is still reduced along its own contiguous values.
        widths = set(counts.tolist())
        if len(widths) == 1:
            block = values[:, : widths.pop()]
            s1 = np.add.reduce(block, axis=1)
            s2 = np.add.reduce(np.square(block), axis=1)
        else:
            s1 = np.empty(counts.size, dtype=np.float64)
            s2 = np.empty(counts.size, dtype=np.float64)
            for width in widths:
                rows = (counts == width).nonzero()[0]
                block = values[rows, :width]
                s1[rows] = np.add.reduce(block, axis=1)
                s2[rows] = np.add.reduce(np.square(block), axis=1)
        # Negation is exact, and a - x is a + (-x) bit for bit.
        np.negative(s1, out=s1, where=flips)
        np.add.at(self._s1, slots, s1)
        np.add.at(self._s2, slots, s2)

        # Store the new chunks after each touched bag's values, in write
        # order, first moving every bag whose region is too small to the
        # end of the log.
        by_slot = slots.argsort(kind="stable")
        sorted_slots = slots[by_slot]
        head = np.empty(sorted_slots.size, dtype=bool)
        head[0] = True
        np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=head[1:])
        heads = head.nonzero()[0]
        touched = sorted_slots[heads]
        slot_len = counts[by_slot]
        added = np.add.reduceat(slot_len, heads)
        old_n = self._n[touched]
        new_n = old_n + added
        movers = (new_n > self._cap[touched]).nonzero()[0]
        log = self._log
        if movers.size:
            moving = touched[movers]
            kept = old_n[movers]
            caps = new_n[movers]
            caps += (caps // 4) * (kept > 0)
            ends = self._log_size + caps.cumsum()
            dest = ends - caps
            end = int(ends[-1])
            log = self._room(end)
            self._log_size = end
            if np.maximum.reduce(kept):
                log[_expand(dest, kept)] = log[_expand(self._start[moving], kept)]
            self._dead += int(np.add.reduce(self._cap[moving]))
            self._start[moving] = dest
            self._cap[moving] = caps
        # Each chunk's values, oriented and in (slot, write) order.
        fresh = values[by_slot]
        np.negative(fresh, out=fresh, where=flips[by_slot, None])
        fresh = fresh[np.arange(fresh.shape[1]) < slot_len[:, None]]
        log[_expand(self._start[touched] + old_n, added)] = fresh
        self._n[touched] = new_n
        self._total += fresh.size

        # First-write order: a new bag ranks by its first chunk.
        born = old_n == 0
        self._born[touched[born]] = self._births + by_slot[heads[born]]
        self._births += counts.size
        self._compact_if_sparse()
        return slots

    # ------------------------------------------------------------------
    # eviction and compaction
    # ------------------------------------------------------------------
    def _evict(self, slot: int) -> int:
        """Empty ``slot``'s bag and reset its replay frontier; returns the
        judgments removed.

        The slot keeps its id: a later write to it (from a racing pool
        that resolved it earlier, say) starts a fresh bag.
        """
        n = int(self._n[slot])
        if n:
            self._n[slot] = 0
            self._reset_frontier(slot)
            self._s1[slot] = 0.0
            self._s2[slot] = 0.0
            self._dead += int(self._cap[slot])
            self._cap[slot] = 0
            self._total -= n
        return n

    def _compact_if_sparse(self) -> None:
        """Rewrite the log without dead space once it exceeds a quarter of
        the live values, so the cache's memory stays proportional to its
        bags (a service namespace holds millions of judgments).  Regions
        keep their size and order, so a growing bag keeps its room; one
        boolean mask over the log selects them, with no index arrays."""
        if 4 * self._dead <= self._total:
            return
        live = np.flatnonzero(self._n[: self._used])
        live = live[np.argsort(self._start[live])]
        starts = self._start[live]
        caps = self._cap[live]
        size = int(caps.sum())
        edges = np.zeros(self._log_size + 1, dtype=np.int8)
        edges[starts] = 1
        edges[starts + caps] -= 1
        owned = np.cumsum(edges[:-1], dtype=np.int8).view(bool)
        log = np.empty(max(1024, size + size // 4), dtype=np.float64)
        np.compress(owned, self._log[: self._log_size], out=log[:size])
        self._start[live] = _starts(caps)
        self._log = log
        self._log_size = size
        self._dead = 0

    def _free_empty_slots(self) -> None:
        """Forget the pair of every empty slot and free its id for a new
        pair, so the slot table follows the live bags rather than every
        pair ever resolved.  Live slots keep their ids.  Ids handed out
        earlier may now name another pair or none; the reads and writes
        that take ids look those up again (:meth:`_checked_slots`), so a
        racing pool that holds them stays correct."""
        used = self._used
        # Freed slots hold lo > hi, which matches no pair.
        empty = np.flatnonzero(
            (self._n[:used] == 0) & (self._lo[:used] < self._hi[:used])
        )
        for pair in zip(self._lo[empty].tolist(), self._hi[empty].tolist()):
            del self._slot_of[pair]
        self._lo[empty] = 1
        self._hi[empty] = 0
        self._reset_frontier(empty)
        self._free.extend(reversed(empty.tolist()))
        self._recycled = self._recycled or bool(empty.size)

    def clear(self) -> None:
        """Drop every bag and replay frontier (deferred batches included —
        they would have been stored and then dropped, so cancelling them
        is equivalent).  Slot ids stay valid and map to empty bags."""
        self._pending.clear()
        self._queued[:] = False
        self._n[:] = 0
        self._reset_frontier(slice(None))
        self._cap[:] = 0
        self._s1[:] = 0.0
        self._s2[:] = 0.0
        self._reset_log()
