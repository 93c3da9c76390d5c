"""Crowd-powered ordering primitives shared by SPR and the baselines.

Everything here spends real (simulated) microtasks through a
:class:`~repro.crowd.session.CrowdSession` and is therefore subject to the
same confidence guarantees, caching and cost/latency accounting as any
other comparison.  Parallel groups — every knockout level and every
odd/even pass — go through :meth:`CrowdSession.compare_many`, so they
advance in vectorized lockstep rounds with no per-pair Python loop on the
oracle path.

Ties — pairs the budget could not separate — are resolved *heuristically*
(by the sign of the observed sample mean, then randomly) because every
ordering primitive must return a total order; the heuristic uses only
information already paid for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import AlgorithmError
from .comparison import ComparisonRecord, GroupRecords
from .outcomes import Outcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = [
    "resolve_winner",
    "resolve_winners",
    "crowd_max_many",
    "odd_even_sort",
    "merge_sort",
    "insertion_sort",
    "median_of_multiset",
]


def resolve_winner(record: ComparisonRecord, rng: np.random.Generator) -> int:
    """The winning item id of ``record``, breaking ties heuristically.

    A decided record answers directly.  A tied record falls back to the
    sign of the observed preference mean — the best unpaid-for guess — and
    to a coin flip when even that is uninformative.
    """
    if record.outcome is Outcome.LEFT:
        return record.left
    if record.outcome is Outcome.RIGHT:
        return record.right
    if np.isfinite(record.mean) and record.mean != 0.0:
        return record.left if record.mean > 0 else record.right
    return record.left if rng.random() < 0.5 else record.right


def resolve_winners(records: GroupRecords, rng: np.random.Generator) -> np.ndarray:
    """The winning item id of each record, as :func:`resolve_winner` picks
    it record by record: the coin flips draw ``rng`` in record order."""
    left_wins = records.codes > 0
    tied = (records.codes == 0).nonzero()[0]
    if tied.size:
        means = records.means[tied]
        informative = np.isfinite(means) & (means != 0.0)
        left_wins[tied] = informative & (means > 0)
        flips = tied[~informative]
        left_wins[flips] = rng.random(flips.size) < 0.5
    return np.where(left_wins, records.lefts, records.rights)


def crowd_max_many(
    session: "CrowdSession", samples: list[list[int]]
) -> list[int]:
    """Best item of each sample, running all tournaments in lockstep.

    The ``m`` independent sampling procedures of reference selection are
    outsourced simultaneously (§5.5), so each knockout *level* across all
    tournaments forms one parallel comparison group and the total latency
    is the depth of the deepest tournament, not the sum.
    """
    brackets = [list(dict.fromkeys(int(i) for i in sample)) for sample in samples]
    if any(not bracket for bracket in brackets):
        raise AlgorithmError("crowd_max_many needs non-empty samples")
    while any(len(bracket) > 1 for bracket in brackets):
        pairs: list[tuple[int, int]] = []
        sources: list[int] = []
        for which, bracket in enumerate(brackets):
            for pos in range(0, len(bracket) - 1, 2):
                pairs.append((bracket[pos], bracket[pos + 1]))
                sources.append(which)
        winners = resolve_winners(session.compare_many(pairs), session.rng)
        # Odd leftovers get a bye into the next level.
        survivors: list[list[int]] = [
            [bracket[-1]] if len(bracket) % 2 == 1 else [] for bracket in brackets
        ]
        for which, winner in zip(sources, winners.tolist()):
            survivors[which].append(winner)
        brackets = survivors
    return [bracket[0] for bracket in brackets]


def median_of_multiset(
    session: "CrowdSession", ids: list[int]
) -> int:
    """The (upper) median of a multiset of item ids by crowd sorting.

    Duplicates — one item winning several sampling procedures — count with
    multiplicity; only the distinct items are actually sorted (via the
    parallel :func:`odd_even_sort`), then the median is read off the
    cumulative multiplicities.
    """
    items = [int(i) for i in ids]
    if not items:
        raise AlgorithmError("median of an empty list is undefined")
    counts: dict[int, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    ranked = odd_even_sort(session, list(counts))
    target = (len(items) + 1) // 2
    seen = 0
    for item in ranked:
        seen += counts[item]
        if seen >= target:
            return item
    raise AssertionError("multiset median walk must terminate")


def _adjacent_pass(
    session: "CrowdSession", order: list[int], start: int
) -> bool:
    """One odd-even transposition pass over ``order`` (best-first).

    Compares positions ``(start, start+1), (start+2, start+3), …`` as a
    single parallel group and swaps wherever the right item proved better.
    Ties leave the current order untouched.  Returns whether any swap
    happened.
    """
    pairs_at = list(range(start, len(order) - 1, 2))
    if not pairs_at:
        return False
    records = session.compare_many(
        [(order[pos], order[pos + 1]) for pos in pairs_at]
    )
    swaps = (records.codes < 0).nonzero()[0]
    for pos in (start + 2 * swaps).tolist():
        order[pos], order[pos + 1] = order[pos + 1], order[pos]
    return bool(swaps.size)


def odd_even_sort(
    session: "CrowdSession",
    ids: list[int],
    initial_order: list[int] | None = None,
) -> list[int]:
    """Sort ``ids`` best-first by crowd comparisons, near-linear when
    pre-sorted.

    This is the parallel form of the bubble sort §5.3 recommends: each
    odd/even pass is one parallel comparison group, an almost-sorted input
    terminates after a constant number of passes, and repeated comparisons
    of the same pair are served from the judgment cache at zero cost.

    ``initial_order`` (e.g. the Thurstone seeding) must be a permutation of
    ``ids`` when given.
    """
    if initial_order is not None:
        if sorted(map(int, initial_order)) != sorted(map(int, ids)):
            raise AlgorithmError("initial_order must be a permutation of ids")
        order = [int(i) for i in initial_order]
    else:
        order = [int(i) for i in ids]
    if len(order) != len(set(order)):
        raise AlgorithmError("cannot sort duplicate item ids")
    if len(order) <= 1:
        return order

    # A full odd+even sweep with no swap is a fixed point; n sweeps is the
    # worst-case bound of odd-even transposition sort.
    for _ in range(len(order)):
        swapped_even = _adjacent_pass(session, order, 0)
        swapped_odd = _adjacent_pass(session, order, 1)
        if not swapped_even and not swapped_odd:
            break
    return order


def merge_sort(session: "CrowdSession", ids: list[int]) -> list[int]:
    """Sort ``ids`` best-first by crowd-powered merge sort.

    The §5.3 cautionary tale: merge sort's comparison count is input-
    *independent* — it cannot exploit a nearly sorted input, so on the
    Thurstone-seeded candidates of the ranking phase it spends strictly
    more than the adaptive bubble/odd-even sort (see
    ``bench_ablation_sorting``).  Provided for completeness and for
    baselines that sort unordered sets, where its ``O(n log n)``
    comparisons beat bubble's ``O(n²)``.
    """
    order = [int(i) for i in ids]
    if len(order) != len(set(order)):
        raise AlgorithmError("cannot sort duplicate item ids")
    if len(order) <= 1:
        return order

    def merge(left: list[int], right: list[int]) -> list[int]:
        merged: list[int] = []
        i = j = 0
        while i < len(left) and j < len(right):
            record = session.compare(left[i], right[j])
            if resolve_winner(record, session.rng) == left[i]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged

    def sort(chunk: list[int]) -> list[int]:
        if len(chunk) <= 1:
            return chunk
        mid = len(chunk) // 2
        return merge(sort(chunk[:mid]), sort(chunk[mid:]))

    return sort(order)


def insertion_sort(
    session: "CrowdSession",
    ids: list[int],
    initial_order: list[int] | None = None,
) -> list[int]:
    """Sort ``ids`` best-first by crowd-powered insertion sort.

    Like bubble sort, insertion sort is *adaptive*: a nearly sorted input
    costs ``O(n + inversions)`` comparisons.  Its comparisons are strictly
    sequential though, so it trades the odd-even sort's parallel latency
    for a slightly lower comparison count.
    """
    if initial_order is not None:
        if sorted(map(int, initial_order)) != sorted(map(int, ids)):
            raise AlgorithmError("initial_order must be a permutation of ids")
        order = [int(i) for i in initial_order]
    else:
        order = [int(i) for i in ids]
    if len(order) != len(set(order)):
        raise AlgorithmError("cannot sort duplicate item ids")

    result = order[:1]
    for item in order[1:]:
        placed = False
        # Scan from the tail: near-sorted inputs place in O(1) comparisons.
        for pos in range(len(result) - 1, -1, -1):
            record = session.compare(item, result[pos])
            if resolve_winner(record, session.rng) == result[pos]:
                result.insert(pos + 1, item)
                placed = True
                break
        if not placed:
            result.insert(0, item)
    return result
