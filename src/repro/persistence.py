"""Persisting crowd state across queries and processes.

§5.3: "all human preference feedback can be stored and the results of
comparisons are always *reusable*."  Within a process the
:class:`~repro.core.cache.JudgmentCache` provides that reuse; this module
extends it across processes — a deployment that ran a top-5 query
yesterday should not re-purchase a single microtask when today's top-10
query touches the same pairs.

One format, a compressed numpy archive of the raw bags (lossless and
compact):

* ``save_cache`` / ``load_cache`` — the bags alone.
* ``save_checkpoint`` / ``load_checkpoint`` — the bags plus a full
  :class:`~repro.crowd.session.CrowdSession` state document (config, RNG
  states, ledgers, in-flight query state), so a killed query resumes to
  the identical result at identical cost.

Both are written atomically — to a temporary file in the target
directory, then ``os.replace``'d into place — so a crash mid-write never
corrupts the previous archive, and both readers refuse a file that is not
such an archive with a :class:`~repro.errors.CrowdTopkError` naming it.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .core.cache import JudgmentCache
from .errors import CrowdTopkError

__all__ = [
    "save_cache",
    "load_cache",
    "save_checkpoint",
    "load_checkpoint",
]

_FORMAT_VERSION = 1
_CHECKPOINT_VERSION = 1


def _write_archive(
    cache: JudgmentCache, path: str | os.PathLike, **documents: np.ndarray
) -> None:
    """Atomically write ``cache``'s bags, with ``documents`` beside them.

    The archive is written to a ``.tmp`` sibling in the target directory,
    flushed to disk and moved into place with :func:`os.replace`, which is
    atomic on POSIX and Windows — a reader never observes a torn file and
    a failed write leaves any previous archive intact.
    """
    path = Path(path)
    arrays = {"__meta__": np.asarray([_FORMAT_VERSION], dtype=np.int64)}
    arrays.update(documents)
    pairs = cache.pairs()
    for number, (a, b) in enumerate(pairs):
        arrays[f"bag_{number}"] = cache.bag(a, b)
    arrays["__pairs__"] = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write leaves no debris
            tmp.unlink()


def _read_archive(
    path: str | os.PathLike, kind: str, head: str
) -> tuple[np.ndarray, JudgmentCache]:
    """The ``head`` entry of the archive at ``path`` and the cache its bags
    hold.  Anything but a complete archive of this format raises
    :class:`CrowdTopkError` naming ``path`` (a missing file stays an
    :class:`OSError`)."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            if not {"__meta__", head, "__pairs__"} <= set(archive.files):
                raise CrowdTopkError(f"{path} is not a crowd-topk {kind} archive")
            version = int(archive["__meta__"][0])
            if version != _FORMAT_VERSION:
                raise CrowdTopkError(
                    f"{path}: archive version {version} is not supported "
                    f"(expected {_FORMAT_VERSION})"
                )
            entry = archive[head]
            cache = JudgmentCache()
            for number, (a, b) in enumerate(archive["__pairs__"].tolist()):
                cache.append(a, b, archive[f"bag_{number}"])
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CrowdTopkError(
            f"{path} is not a readable crowd-topk {kind} archive: {exc}"
        ) from None
    return entry, cache


def save_cache(cache: JudgmentCache, path: str | os.PathLike) -> None:
    """Atomically write all judgment bags to a compressed ``.npz`` archive."""
    _write_archive(cache, path)


def load_cache(path: str | os.PathLike) -> JudgmentCache:
    """Read a judgment cache written by :func:`save_cache` (or the bags of
    a :func:`save_checkpoint` archive)."""
    _, cache = _read_archive(path, "cache", "__meta__")
    return cache


def save_checkpoint(
    state: dict, cache: JudgmentCache, path: str | os.PathLike
) -> None:
    """Atomically write a session checkpoint (state document + cache).

    ``state`` must be JSON-serializable (``CrowdSession.checkpoint_state``
    produces one; Python's ``json`` round-trips the arbitrary-precision
    ints of RNG bit-generator states and the exact ``repr`` of every
    float).  The judgment bags ride alongside as raw numpy arrays — the
    same layout as :func:`save_cache` — so the bulk data never passes
    through JSON.
    """
    document = json.dumps({"version": _CHECKPOINT_VERSION, **state})
    _write_archive(cache, path, __checkpoint__=np.asarray([document]))


def load_checkpoint(path: str | os.PathLike) -> tuple[dict, JudgmentCache]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``(state, cache)`` — the JSON state document (without the
    version key) and the revived judgment cache.
    """
    entry, cache = _read_archive(path, "checkpoint", "__checkpoint__")
    document = json.loads(str(entry[0]))
    version = document.pop("version", None)
    if version != _CHECKPOINT_VERSION:
        raise CrowdTopkError(
            f"{path}: checkpoint version {version} is not supported "
            f"(expected {_CHECKPOINT_VERSION})"
        )
    return document, cache
