"""The judgment cache's write-behind queue is invisible, and folds only
when a read needs it.

``JudgmentCache.defer_rows`` queues a racing round's batch and marks the
slots it writes; a replay that reads no marked slot leaves the queue as
it is, and every other read or write folds it first.  The Hypothesis
test below interleaves queued batches with every read and write door on
a lazy cache and on an eager twin that folds each batch at once: every
answer, the replay frontiers, ``pairs()`` order and a persistence round
trip must match bit for bit.  The count tests pin how often the queue is
folded on the paths that motivated it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.algorithms import ALGORITHMS
from repro.core.cache import JudgmentCache
from repro.persistence import cache_to_json
from repro.service.cache import SharedJudgmentCache
from repro.telemetry import MetricsRegistry

ITEMS = 6


def _bits(value: float) -> str:
    return "nan" if math.isnan(value) else float(value).hex()


def _never(n, s1, s2, stage_var, reach):
    """A replay rule that never decides."""
    return np.zeros(n.shape, dtype=np.int8)


def _sign(n, s1, s2, stage_var, reach):
    """A replay rule that decides once ``|Σv|`` outgrows ``3√n`` (odd in
    the sign of the judgments, as replay requires)."""
    return np.where(np.abs(s1) > 3.0 * np.sqrt(n), np.sign(s1), 0).astype(np.int8)


RULES = {"never": _never, "sign": _sign}


def _pairs():
    return st.tuples(
        st.integers(0, ITEMS - 1), st.integers(0, ITEMS - 1)
    ).filter(lambda pair: pair[0] != pair[1])


def _rows():
    """A padded batch: repeated pairs, both orientations, and rows that
    consume nothing."""
    return st.integers(0, 8).flatmap(
        lambda rows: st.tuples(
            st.lists(_pairs(), min_size=rows, max_size=rows),
            st.integers(0, 12),
            st.integers(0, 2**32 - 1),
        )
    )


def _batch(spec):
    pairs, width, seed = spec
    rng = np.random.default_rng(seed)
    lefts = np.asarray([p[0] for p in pairs], dtype=np.int64)
    rights = np.asarray([p[1] for p in pairs], dtype=np.int64)
    values = rng.normal(0.3, 1.0, size=(len(pairs), width))
    counts = rng.integers(0, width + 1, size=len(pairs)).astype(np.int64)
    return lefts, rights, values, counts


def _arrays(pairs):
    return (
        np.asarray([p[0] for p in pairs], dtype=np.int64),
        np.asarray([p[1] for p in pairs], dtype=np.int64),
    )


#: (batch, slots: "held" as a racing pool holds them, or None)
_DEFER = st.tuples(st.just("defer"), _rows(), st.sampled_from(["held", None]))
#: (pairs, limit, rule, slots: "held", "fresh" from ``slot_ids``, or None)
_REPLAY = st.tuples(
    st.just("replay"),
    st.lists(_pairs(), max_size=5),
    st.integers(1, 30),
    st.sampled_from(sorted(RULES)),
    st.sampled_from(["held", "fresh", None]),
)
_OPS = st.one_of(
    # Queued batches and replays twice as often as the doors that fold.
    _DEFER,
    _DEFER,
    _REPLAY,
    _REPLAY,
    st.tuples(st.just("read"), _pairs()),
    st.tuples(st.just("bags_for"), st.lists(_pairs(), max_size=5)),
    st.tuples(st.just("summary")),
    st.tuples(
        st.just("append"), _pairs(), st.integers(0, 6), st.integers(0, 2**32 - 1)
    ),
    st.tuples(st.just("append_rows"), _rows()),
    st.tuples(st.just("evict"), _pairs()),
    st.tuples(st.just("free")),
    st.tuples(st.just("clear")),
)


class _Twin:
    """One cache and the slot ids a racing pool would hold for it."""

    def __init__(self, eager: bool) -> None:
        self.cache = JudgmentCache()
        self.eager = eager
        self.held: dict[tuple[int, int], int] = {}

    def slots(self, lefts, rights, source: str = "held") -> np.ndarray | None:
        cache = self.cache
        if source is None:
            return None
        if source == "fresh":  # resolved now, as a new racing pool does
            return cache.slot_ids(lefts, rights)
        for i, j in zip(lefts.tolist(), rights.tolist()):
            key = (min(i, j), max(i, j))
            if key not in self.held:
                self.held[key] = int(
                    cache.slot_ids(np.asarray([i]), np.asarray([j]))[0]
                )
        return np.asarray(
            [self.held[(min(i, j), max(i, j))] for i, j in zip(lefts, rights)],
            dtype=np.int64,
        )

    def apply(self, op):
        """Run ``op``; returns what it read, rendered bit-exactly."""
        cache = self.cache
        kind = op[0]
        if kind == "defer":
            batch = _batch(op[1])
            slots = self.slots(*batch[:2], op[2])
            cache.defer_rows(*batch, slots=slots)
            if self.eager:
                cache.settle()
            return None
        if kind == "replay":
            pairs, limit, rule, source = op[1:]
            lefts, rights = _arrays(pairs)
            slots = self.slots(lefts, rights, source)
            found = cache.replay(lefts, rights, limit, rule, RULES[rule], slots=slots)
            if found is None:
                return None
            return (
                found.rows.tolist(),
                found.n.tolist(),
                [_bits(v) for v in found.s1.tolist()],
                [_bits(v) for v in found.s2.tolist()],
                found.codes.tolist(),
                [_bits(v) for v in found.stage_var.tolist()],
            )
        if kind == "read":
            i, j = op[1]
            n, mean, var = cache.moments(i, j)
            return (
                cache.bag(i, j).tobytes(),
                cache.count(i, j),
                n,
                _bits(mean),
                _bits(var),
            )
        if kind == "bags_for":
            return [bag.tobytes() for bag in cache.bags_for(*_arrays(op[1]))]
        if kind == "summary":
            return (cache.pairs(), cache.pair_count, cache.total_samples, cache.empty)
        if kind == "append":
            (i, j), width, seed = op[1:]
            cache.append(i, j, np.random.default_rng(seed).normal(size=width))
            return None
        if kind == "append_rows":
            cache.append_rows(*_batch(op[1]))
            return None
        if kind == "evict":
            # What the service's LRU does to a slot.
            i, j = op[1]
            cache.settle()
            slot = cache._slot_of.get((min(i, j), max(i, j)))
            if slot is not None:
                cache._evict(slot)
                cache._compact_if_sparse()
            return None
        if kind == "free":
            # Held ids may name other pairs from here on.
            cache.settle()
            cache._free_empty_slots()
            return None
        cache.clear()
        return None

    def frontiers(self) -> dict:
        """Every live pair's replay frontier, bit-exactly."""
        cache = self.cache
        cache.settle()
        out = {}
        for pair in cache.pairs():
            slot = cache._slot_of[pair]
            out[pair] = tuple(
                _bits(float(column[slot])) for column in cache._frontier()
            )
        return out


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=30))
# A replay of pairs no queued batch writes to, while other pairs are
# queued: the lazy cache answers without folding the queue.
@example(
    [
        ("append", (0, 1), 6, 1),
        ("defer", ([(2, 3), (3, 2)], 5, 2), "held"),
        ("replay", [(1, 0), (4, 5)], 20, "sign", "held"),
        ("defer", ([(0, 1)], 4, 5), "held"),
        ("replay", [(0, 1)], 20, "sign", "held"),
        ("summary",),
    ]
)
# Recycled ids: a held id names another pair once the table reuses it,
# so the queued batch marks other slots than a new pool resolves.
@example(
    [
        ("defer", ([(0, 1), (1, 2)], 3, 5), "held"),
        ("evict", (0, 1)),
        ("evict", (1, 2)),
        ("append", (3, 4), 2, 6),
        ("free",),
        ("append", (4, 5), 2, 8),
        ("append", (3, 5), 2, 8),
        ("defer", ([(0, 1), (1, 2)], 3, 9), "held"),
        ("replay", [(2, 1)], 9, "never", "fresh"),
    ]
)
# A frontier left behind: the twins number (0, 1) and (0, 2) in another
# order (the lazy one resolves (0, 1) before it folds the blind batch),
# a replay scans (0, 1), and after clear() and freeing both ids, (0, 1)
# gets the id that held its frontier in one twin only.  Every frontier
# column of a recycled slot must read as a fresh slot's.
@example(
    [("defer", ([], 0, 0), "held")] * 5
    + [
        ("defer", ([(0, 2), (0, 1), (0, 1), (0, 1), (0, 1)], 1, 0), None),
        ("replay", [(0, 1)], 1, "never", "held"),
        ("clear",),
        ("free",),
        ("append", (0, 1), 1, 0),
    ]
)
def test_deferral_is_invisible(ops):
    lazy, eager = _Twin(eager=False), _Twin(eager=True)
    for op in ops:
        assert lazy.apply(op) == eager.apply(op), op
    assert lazy.cache.empty == eager.cache.empty
    assert lazy.cache.pairs() == eager.cache.pairs()
    assert lazy.frontiers() == eager.frontiers()
    assert cache_to_json(lazy.cache) == cache_to_json(eager.cache)


class TestReplayLeavesTheQueue:
    @staticmethod
    def _queued(cache: JudgmentCache) -> None:
        lefts, rights = _arrays([(0, 1), (2, 3)])
        cache.append(4, 5, np.ones(3))
        cache.defer_rows(
            lefts,
            rights,
            np.ones((2, 2)),
            np.asarray([2, 1]),
            slots=cache.slot_ids(lefts, rights),
        )

    def test_replay_of_unqueued_pairs_leaves_the_queue(self):
        cache = JudgmentCache()
        self._queued(cache)
        lefts, rights = _arrays([(5, 4)])
        found = cache.replay(
            lefts, rights, 10, "never", _never, slots=cache.slot_ids(lefts, rights)
        )
        assert found.n.tolist() == [3]
        assert cache._pending and not cache.empty
        assert cache.total_samples == 6  # any other read folds it
        assert not cache._pending and not cache._queued.any()

    @pytest.mark.parametrize(
        "pairs, held", [([(1, 0)], True), ([(5, 4)], False)], ids=["queued", "no-slots"]
    )
    def test_replay_folds_the_queue_when_it_may_read_it(self, pairs, held):
        cache = JudgmentCache()
        self._queued(cache)
        lefts, rights = _arrays(pairs)
        slots = cache.slot_ids(lefts, rights) if held else None
        cache.replay(lefts, rights, 10, "never", _never, slots=slots)
        assert not cache._pending

    def test_a_batch_queued_without_slots_folds_on_replay(self):
        cache = JudgmentCache()
        cache.append(4, 5, np.ones(3))
        cache.defer_rows(*_arrays([(0, 1)]), np.ones((1, 2)), np.asarray([2]))
        lefts, rights = _arrays([(4, 5)])
        cache.replay(
            lefts, rights, 10, "never", _never, slots=cache.slot_ids(lefts, rights)
        )
        assert not cache._pending


def _count_drains(monkeypatch) -> list[int]:
    calls = [0]
    drain = JudgmentCache._drain

    def counting(cache):
        calls[0] += 1
        return drain(cache)

    monkeypatch.setattr(JudgmentCache, "_drain", counting)
    return calls


class TestDrainCounts:
    """How often the queue folds on the sequential racing paths: each
    comparison races pairs no earlier one left queued, so none folds."""

    @pytest.mark.parametrize(
        "method, n_items, k", [("bdp", 10, 3), ("fullsort", 20, 10)]
    )
    def test_sequential_query_never_folds(self, monkeypatch, method, n_items, k):
        dataset = load_dataset("jester")
        calls = _count_drains(monkeypatch)
        session = dataset.session(seed=3)
        result = ALGORITHMS[method](session, dataset.items.ids.tolist()[:n_items], k=k)
        assert len(result.topk) == k
        assert session.cost.comparisons > 40
        assert calls[0] == 0

    def test_tenant_cache_replay_still_folds_first(self, monkeypatch):
        # The namespace's fold orders LRU recency by write order, so its
        # replay folds the queue even for pairs no batch writes to.
        cache = SharedJudgmentCache(registry=MetricsRegistry()).tenant("t")
        TestReplayLeavesTheQueue._queued(cache)
        calls = _count_drains(monkeypatch)
        assert not cache.empty
        lefts, rights = _arrays([(5, 4)])
        slots = cache.slot_ids(lefts, rights)
        cache.replay(lefts, rights, 10, "never", _never, slots=slots)
        assert calls[0] == 1
        assert not cache._pending
