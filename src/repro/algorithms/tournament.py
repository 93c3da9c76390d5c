"""Tournament-tree baseline — §4.1 (Davidson et al. style).

A knockout tournament over a random permutation finds the champion; every
subsequent result item is the best of the *candidate set* — the items whose
every conqueror already sits in the result.  That candidate set is exactly
the classic "items that directly lost to selected items", of size
``O(log N)`` per extraction, giving the ``O(Nw + kw log N)`` total workload
the paper quotes.  Each knockout level is one parallel comparison group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.sorting import resolve_winners
from .base import TopKOutcome, measured, validate_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = ["tournament_topk"]


def _knockout(
    session: "CrowdSession",
    entrants: list[int],
    conquerors: dict[int, set[int]],
) -> int:
    """Run a knockout among ``entrants``, recording loser → winner edges."""
    current = list(entrants)
    while len(current) > 1:
        pairs = [
            (current[pos], current[pos + 1]) for pos in range(0, len(current) - 1, 2)
        ]
        records = session.compare_many(pairs)
        winners = resolve_winners(records, session.rng)
        losers = np.where(winners == records.lefts, records.rights, records.lefts)
        survivors = [current[-1]] if len(current) % 2 == 1 else []
        for winner, loser in zip(winners.tolist(), losers.tolist()):
            conquerors[loser].add(winner)
            survivors.append(winner)
        current = survivors
    return current[0]


def tournament_topk(
    session: "CrowdSession", item_ids: list[int], k: int
) -> TopKOutcome:
    """Answer the top-k query with repeated tournament selection."""
    ids = validate_query(item_ids, k)
    before = session.spent()

    order = list(ids)
    session.rng.shuffle(order)
    conquerors: dict[int, set[int]] = {item: set() for item in order}

    result: list[int] = []
    champion = _knockout(session, order, conquerors)
    result.append(champion)
    selected = {champion}

    while len(result) < k:
        candidates = [
            item
            for item in order
            if item not in selected and conquerors[item] <= selected
        ]
        next_best = _knockout(session, candidates, conquerors)
        result.append(next_best)
        selected.add(next_best)

    return measured("tournament", session, result, before)
