"""Judgment-cache persistence across processes."""

import numpy as np
import pytest

from repro.core.cache import JudgmentCache
from repro.errors import CrowdTopkError
from repro.persistence import (
    cache_from_json,
    cache_to_json,
    load_cache,
    save_cache,
)
from tests.conftest import make_latent_session


def _populated_cache(rng) -> JudgmentCache:
    cache = JudgmentCache()
    cache.append(0, 1, rng.normal(size=40))
    cache.append(5, 2, rng.normal(size=7))
    cache.append(3, 9, np.array([0.25]))
    return cache


class TestNpzRoundTrip:
    def test_round_trip_is_lossless(self, rng, tmp_path):
        cache = _populated_cache(rng)
        path = tmp_path / "bags.npz"
        save_cache(cache, path)
        loaded = load_cache(path)
        assert sorted(loaded.pairs()) == sorted(cache.pairs())
        for a, b in cache.pairs():
            assert np.array_equal(loaded.bag(a, b), cache.bag(a, b))
        assert loaded.total_samples == cache.total_samples

    def test_empty_cache_round_trip(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_cache(JudgmentCache(), path)
        assert load_cache(path).total_samples == 0

    def test_rejects_foreign_archives(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(CrowdTopkError):
            load_cache(path)


class TestJsonRoundTrip:
    def test_round_trip_is_lossless(self, rng):
        cache = _populated_cache(rng)
        loaded = cache_from_json(cache_to_json(cache))
        for a, b in cache.pairs():
            assert np.allclose(loaded.bag(a, b), cache.bag(a, b))

    def test_rejects_invalid_json(self):
        with pytest.raises(CrowdTopkError):
            cache_from_json("{not json")

    def test_rejects_wrong_format(self):
        with pytest.raises(CrowdTopkError):
            cache_from_json('{"format": "something-else"}')

    def test_rejects_wrong_version(self):
        with pytest.raises(CrowdTopkError):
            cache_from_json('{"format": "crowd-topk-cache", "version": 99}')


class TestOperationalReuse:
    def test_yesterdays_judgments_are_free_today(self, tmp_path):
        # Query 1 in one "process", persisted; query 2 replays it for free.
        first = make_latent_session([0.0, 2.0, 4.0, 6.0], sigma=0.5, seed=1)
        first.compare(3, 0)
        first.compare(2, 1)
        path = tmp_path / "state.npz"
        save_cache(first.cache, path)

        second = make_latent_session([0.0, 2.0, 4.0, 6.0], sigma=0.5, seed=2)
        second.cache = load_cache(path)
        record = second.compare(3, 0)
        assert record.cost == 0
        assert record.from_cache
