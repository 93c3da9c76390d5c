"""The columnar judgment cache against a tiny reference model.

The model keeps, per canonical pair, a plain list of canonical chunks and
folds ``Σv`` / ``Σv²`` chunk by chunk with ``np.sum`` — the definition
the columnar store must reproduce bit for bit, whatever mix of direct
appends, batched rows, deferred rows, reads, evictions and clears leads
there, and whether the caller passes slot ids it resolved before the
slot table forgot its empty slots.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import JudgmentCache

ITEMS = 5


class Model:
    def __init__(self) -> None:
        self.chunks: dict[tuple[int, int], list[np.ndarray]] = {}
        self.s1: dict[tuple[int, int], float] = {}
        self.s2: dict[tuple[int, int], float] = {}

    def write(self, i: int, j: int, values: np.ndarray) -> None:
        if values.size == 0:
            return
        key = (min(i, j), max(i, j))
        canonical = values if i < j else -values
        if key not in self.chunks:  # dict order == first-write order
            self.chunks[key] = []
            self.s1[key] = 0.0
            self.s2[key] = 0.0
        self.chunks[key].append(canonical.copy())
        self.s1[key] += float(np.sum(canonical))
        self.s2[key] += float(np.sum(np.square(canonical)))

    def write_rows(self, lefts, rights, values, counts) -> None:
        for row, count in enumerate(counts.tolist()):
            self.write(int(lefts[row]), int(rights[row]), values[row, :count])

    def evict(self, key: tuple[int, int]) -> None:
        for table in (self.chunks, self.s1, self.s2):
            table.pop(key, None)

    def bag(self, i: int, j: int) -> np.ndarray:
        key = (min(i, j), max(i, j))
        parts = self.chunks.get(key)
        values = np.concatenate(parts) if parts else np.empty(0)
        return values if i < j else -values

    def moments(self, i: int, j: int) -> tuple[int, float, float]:
        key = (min(i, j), max(i, j))
        if key not in self.chunks:
            return 0, math.nan, math.nan
        sign = 1.0 if i < j else -1.0
        n = int(sum(part.size for part in self.chunks[key]))
        mean = self.s1[key] / n
        if n < 2:
            return n, sign * mean, math.nan
        var = max((self.s2[key] - n * mean * mean) / (n - 1), 0.0)
        return n, sign * mean, var


def _bits(value: float) -> str:
    return "nan" if math.isnan(value) else float(value).hex()


def _never(n, s1, s2, stage_var, reach):
    """A replay rule that never decides."""
    return np.zeros(n.shape, dtype=np.int8)


def _pairs():
    return st.tuples(
        st.integers(0, ITEMS - 1), st.integers(0, ITEMS - 1)
    ).filter(lambda pair: pair[0] != pair[1])


def _rows():
    """A padded batch: repeated pairs, both orientations, zero-width rows,
    and widths below and above numpy's 8-element unrolled summation
    block."""
    return st.integers(0, 12).flatmap(
        lambda rows: st.tuples(
            st.lists(_pairs(), min_size=rows, max_size=rows),
            st.integers(0, 40),
            st.integers(0, 2**32 - 1),
        )
    )


_OPS = st.one_of(
    st.tuples(
        st.just("append"), _pairs(), st.integers(0, 40), st.integers(0, 2**32 - 1)
    ),
    st.tuples(st.just("append_rows"), _rows()),
    st.tuples(st.just("defer_rows"), _rows(), st.booleans()),
    st.tuples(st.just("read"), _pairs()),
    st.tuples(
        st.just("bulk"),
        st.lists(_pairs(), max_size=6),
        st.integers(1, 50),
        st.booleans(),
    ),
    st.tuples(st.just("evict"), _pairs()),
    st.tuples(st.just("free")),
    st.tuples(st.just("clear")),
)


def _batch(spec):
    pairs, width, seed = spec
    rng = np.random.default_rng(seed)
    lefts = np.asarray([p[0] for p in pairs], dtype=np.int64)
    rights = np.asarray([p[1] for p in pairs], dtype=np.int64)
    values = rng.normal(size=(len(pairs), width)) * 10.0 ** rng.integers(-3, 4)
    counts = rng.integers(0, width + 1, size=len(pairs)).astype(np.int64)
    return lefts, rights, values, counts


def _check_pair(cache: JudgmentCache, model: Model, i: int, j: int) -> None:
    assert cache.bag(i, j).tobytes() == model.bag(i, j).tobytes()
    assert cache.count(i, j) == model.bag(i, j).size
    got = cache.moments(i, j)
    want = model.moments(i, j)
    assert got[0] == want[0]
    assert [_bits(v) for v in got[1:]] == [_bits(v) for v in want[1:]]


def _check_all(cache: JudgmentCache, model: Model) -> None:
    assert cache.pairs() == list(model.chunks)
    assert cache.pair_count == len(model.chunks)
    assert cache.total_samples == sum(
        part.size for parts in model.chunks.values() for part in parts
    )
    for i, j in model.chunks:
        _check_pair(cache, model, i, j)
        _check_pair(cache, model, j, i)


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=30))
# Evict a big bag (the log compacts), then refill the pair: the refill
# must count as live under the compacted numbering.
@example(
    [
        ("append", (0, 1), 30, 1),
        ("append", (2, 3), 5, 2),
        ("evict", (1, 0)),
        ("append", (1, 0), 3, 3),
        ("defer_rows", ([(0, 1), (3, 2)], 4, 4), False),
        ("read", (0, 1)),
    ]
)
# Ids held across a free name other pairs once new pairs reuse them.
@example(
    [
        ("defer_rows", ([(0, 1), (1, 2), (2, 3)], 3, 5), True),
        ("append", (3, 4), 2, 6),
        ("evict", (0, 1)),
        ("evict", (1, 2)),
        ("free",),
        ("append", (5, 6), 2, 8),
        ("defer_rows", ([(0, 1), (1, 2), (2, 3)], 3, 7), True),
        ("bulk", [(2, 1), (0, 1), (3, 4)], 9, True),
    ]
)
def test_columnar_store_matches_the_reference_model(ops):
    cache, model = JudgmentCache(), Model()
    # Slot ids as a racing pool holds them: resolved once, then passed
    # again even after the table freed them.
    held: dict[tuple[int, int], int] = {}

    def held_slots(lefts, rights):
        for i, j in zip(lefts.tolist(), rights.tolist()):
            if (min(i, j), max(i, j)) not in held:
                slot = int(cache.slot_ids(np.asarray([i]), np.asarray([j]))[0])
                held[(min(i, j), max(i, j))] = slot
        return np.asarray(
            [held[(min(i, j), max(i, j))] for i, j in zip(lefts, rights)],
            dtype=np.int64,
        )
    for op in ops:
        kind = op[0]
        if kind == "append":
            (i, j), width, seed = op[1:]
            values = np.random.default_rng(seed).normal(size=width)
            cache.append(i, j, values)
            model.write(i, j, values)
        elif kind == "append_rows":
            batch = _batch(op[1])
            cache.append_rows(*batch)
            model.write_rows(*batch)
        elif kind == "defer_rows":
            batch = _batch(op[1])
            slots = held_slots(*batch[:2]) if op[2] else None
            cache.defer_rows(*batch, slots=slots)
            model.write_rows(*batch)
        elif kind == "read":
            _check_pair(cache, model, *op[1])
        elif kind == "bulk":
            pairs, limit, use_held = op[1:]
            lefts = np.asarray([p[0] for p in pairs], dtype=np.int64)
            rights = np.asarray([p[1] for p in pairs], dtype=np.int64)
            bags = cache.bags_for(lefts, rights)
            assert len(bags) == len(pairs)
            slots = held_slots(lefts, rights) if use_held else None
            # A rule that never decides reads each bag up to the limit,
            # resuming from the frontier of earlier bulk reads: its sums
            # must be a from-scratch cumsum's however the bag grew, moved
            # or was evicted and refilled in between.
            found = cache.replay(lefts, rights, limit, "never", _never, slots=slots)
            rows = [] if found is None else found.rows.tolist()
            for row, (i, j) in enumerate(pairs):
                want = model.bag(i, j)
                assert bags[row].tobytes() == want.tobytes()
                assert (row in rows) == bool(want.size)
                if want.size:
                    at = rows.index(row)
                    prefix = want[:limit]
                    assert found.n[at] == prefix.size
                    assert _bits(found.s1[at]) == _bits(np.cumsum(prefix)[-1])
                    assert _bits(found.s2[at]) == _bits(
                        np.cumsum(np.square(prefix))[-1]
                    )
                    assert found.codes[at] == 0
        elif kind == "evict":
            # What the service's LRU does to a slot; compaction follows
            # whenever dead judgments exceed a quarter of the live ones.
            i, j = op[1]
            key = (min(i, j), max(i, j))
            cache.settle()
            slot = cache._slot_of.get(key)
            if slot is not None:
                cache._evict(slot)
                cache._compact_if_sparse()
            model.evict(key)
        elif kind == "free":
            # What the service does once evictions leave more empty slots
            # than live ones; ``held`` ids may now name other pairs.
            cache.settle()
            cache._free_empty_slots()
        else:
            cache.clear()
            model = Model()
    _check_all(cache, model)
