"""Reference-based sorting — §5.3.

The top-k candidates all carry sample bags against the shared reference
``r``, so Thurstone's Case-V calculation orders them *for free*:
``Pr{μ_{i,r} > μ_{j,r}} = Φ((μ̂_i − μ̂_j)/σ̂)`` ranks ``i`` above ``j``
exactly when its observed mean against ``r`` is larger.  That almost-sorted
order seeds a best-case-linear crowd bubble sort (the parallel odd-even
form), whose re-comparisons are largely served from the judgment cache.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..sorting import odd_even_sort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...crowd.session import CrowdSession

__all__ = ["thurstone_order", "reference_sort"]


def thurstone_order(
    session: "CrowdSession", candidate_ids: list[int], reference: int
) -> list[int]:
    """Order candidates by their observed means against ``reference``.

    This is the ranking induced by pairwise Thurstone win probabilities
    (:func:`repro.stats.thurstone.win_probability`): they are monotone in
    the mean difference, so sorting by means realizes them without further
    microtasks.  Candidates without a
    bag against the reference (recursion results, randomly promoted ties)
    sort as if neutral (mean 0); the reference itself is neutral by
    definition.
    """
    reference = int(reference)

    def observed_mean(item: int) -> float:
        if item == reference:
            return 0.0
        _, mean, _ = session.moments(item, reference)
        return mean if math.isfinite(mean) else 0.0

    return sorted(
        (int(i) for i in candidate_ids), key=lambda item: -observed_mean(item)
    )


def reference_sort(
    session: "CrowdSession",
    candidate_ids: list[int],
    reference: int | None = None,
) -> list[int]:
    """Sort candidates best-first, seeded by the Thurstone order.

    With ``reference=None`` (no shared bags — e.g. tiny inputs that skipped
    partitioning) the sort starts from the given order.
    """
    ids = [int(i) for i in candidate_ids]
    if len(ids) <= 1:
        return ids
    initial = thurstone_order(session, ids, reference) if reference is not None else ids
    return odd_even_sort(session, ids, initial_order=initial)
