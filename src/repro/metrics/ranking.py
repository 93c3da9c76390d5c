"""Set-based ranking metrics."""

from __future__ import annotations

from collections.abc import Sequence

from ..core.items import ItemSet

__all__ = ["top_k_precision"]


def top_k_precision(items: ItemSet, returned: Sequence[int], k: int) -> float:
    """Fraction of the returned items that truly belong to the top-k.

    This is the quantity §5.4 lower-bounds by ``(1 − α)/c``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    got = [int(item) for item in returned][:k]
    if not got:
        return 0.0
    truth = set(int(i) for i in items.true_top_k(min(k, len(items))))
    return sum(1 for item in got if item in truth) / len(got)
