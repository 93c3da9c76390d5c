"""Judgment-cache persistence across processes."""

import io
import json
import re

import numpy as np
import pytest

from repro.core.cache import JudgmentCache
from repro.errors import CrowdTopkError
from repro.persistence import load_cache, load_checkpoint, save_cache
from tests.conftest import make_latent_session


def _populated_cache(rng) -> JudgmentCache:
    cache = JudgmentCache()
    cache.append(0, 1, rng.normal(size=40))
    cache.append(5, 2, rng.normal(size=7))
    cache.append(3, 9, np.array([0.25]))
    return cache


def _assert_same_bags(got: JudgmentCache, want: JudgmentCache) -> None:
    assert got.pairs() == want.pairs()
    for a, b in want.pairs():
        assert got.bag(a, b).tobytes() == want.bag(a, b).tobytes()


class TestNpzRoundTrip:
    def test_round_trip_is_lossless(self, rng, tmp_path):
        cache = _populated_cache(rng)
        path = tmp_path / "bags.npz"
        save_cache(cache, path)
        loaded = load_cache(path)
        _assert_same_bags(loaded, cache)
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

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            __meta__=np.asarray([99]),
            __pairs__=np.empty((0, 2), dtype=np.int64),
        )
        with pytest.raises(CrowdTopkError, match="version 99 is not supported"):
            load_cache(path)

    def test_a_failed_save_keeps_the_previous_archive(
        self, rng, tmp_path, monkeypatch
    ):
        cache = _populated_cache(rng)
        path = tmp_path / "bags.npz"
        save_cache(cache, path)

        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez_compressed", fail)
        with pytest.raises(OSError):
            save_cache(JudgmentCache(), path)
        monkeypatch.undo()
        _assert_same_bags(load_cache(path), cache)
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left


def _torn(data: bytes) -> bytes:
    """An archive whose index names a bag it does not hold."""
    out = io.BytesIO()
    np.savez(
        out,
        __meta__=np.asarray([1]),
        __checkpoint__=np.asarray([json.dumps({"version": 1})]),
        __pairs__=np.asarray([[0, 1]]),
    )
    return out.getvalue()


#: Ways to damage a saved archive's bytes.
_DAMAGE = {
    "garbage": lambda data: b"not an archive",
    "truncated": lambda data: data[: len(data) // 2],
    "missing-bag": _torn,
}


class TestMalformedArchives:
    """Both readers refuse what is not a complete archive with a
    :class:`CrowdTopkError` that names the file."""

    @pytest.mark.parametrize("load", [load_cache, load_checkpoint])
    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_a_damaged_file_is_refused_naming_the_file(
        self, rng, tmp_path, load, damage
    ):
        path = tmp_path / "damaged.npz"
        save_cache(_populated_cache(rng), path)
        path.write_bytes(_DAMAGE[damage](path.read_bytes()))
        with pytest.raises(CrowdTopkError, match=re.escape(str(path))):
            load(path)


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
