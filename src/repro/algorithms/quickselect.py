"""Quick-selection baseline — §4.3 (Hoare's FIND with a crowd).

A random pivot is compared against every other item in one parallel batch;
the recursion then descends into whichever side must contain the k-th item.
Ties with the pivot (pairs the budget could not separate) travel with the
pivot as one indistinguishable block.  Expected workload is
``O(Nw + kw log k)``, but an unlucky pivot near the true top-k boundary
makes its ``N-1`` comparisons expensive — the sensitivity the paper calls
out.  The selected k items are finally ordered by a crowd sort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.sorting import odd_even_sort
from .base import TopKOutcome, measured, validate_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = ["quickselect_topk"]


def _select(session: "CrowdSession", ids: list[int], k: int) -> list[int]:
    """The (unordered) top-``k`` subset of ``ids``."""
    if len(ids) <= k:
        return list(ids)
    pivot = int(ids[session.rng.integers(0, len(ids))])
    others = [item for item in ids if item != pivot]
    records = session.compare_many([(item, pivot) for item in others])

    winners, losers, block = [], [], [pivot]
    for item, code in zip(records.lefts.tolist(), records.codes.tolist()):
        if code > 0:
            winners.append(item)
        elif code < 0:
            losers.append(item)
        else:
            block.append(item)

    if len(winners) >= k:
        return _select(session, winners, k)
    if len(winners) + len(block) >= k:
        return winners + block[: k - len(winners)]
    return winners + block + _select(
        session, losers, k - len(winners) - len(block)
    )


def quickselect_topk(
    session: "CrowdSession", item_ids: list[int], k: int
) -> TopKOutcome:
    """Answer the top-k query with crowd-powered quick selection."""
    ids = validate_query(item_ids, k)
    before = session.spent()
    top = _select(session, ids, k)
    ranked = odd_even_sort(session, top)
    return measured("quickselect", session, ranked, before)
