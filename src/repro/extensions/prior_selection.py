"""Prior-guided reference selection — the paper's second §7 follow-up.

When partial knowledge of the item scores exists (Ciceri et al. [11]
assume narrow per-item score ranges; in practice: last year's ranking,
cheap machine scores, a graded pre-pass), the sampling phase of §5.1 is
unnecessary: the prior already points at the sweet spot.  ``prior_reference``
picks the item whose *prior rank* sits in the middle of
``{k, …, ⌊ck⌋}``, and ``spr_topk_with_prior`` runs SPR with the sampling
phase replaced by that free choice — the partition and ranking phases
(and their confidence guarantees) are untouched.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

import math

from ..config import SPRConfig
from ..core.spr.partition import partition
from ..core.spr.rank import reference_sort
from ..core.spr.spr import SPRResult, spr_topk
from ..errors import AlgorithmError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = ["prior_reference", "spr_topk_with_prior"]


def prior_reference(
    item_ids: list[int],
    k: int,
    priors: Mapping[int, float],
    sweet_spot: float = 1.5,
) -> int:
    """The item whose prior rank centres the sweet spot ``{k .. ⌊ck⌋}``.

    ``priors`` maps item id → prior score (higher = better); every queried
    item must have one.  Ties in the prior break by ascending id, matching
    the library's ground-truth convention.
    """
    ids = [int(i) for i in item_ids]
    if not 1 <= k <= len(ids):
        raise AlgorithmError(f"k must be in [1, {len(ids)}], got {k}")
    if sweet_spot <= 1.0:
        raise AlgorithmError(f"sweet_spot must be > 1, got {sweet_spot}")
    missing = [i for i in ids if i not in priors]
    if missing:
        raise AlgorithmError(f"items without a prior: {missing[:5]}")
    ranked = sorted(ids, key=lambda i: (-float(priors[i]), i))
    spot_lo = k
    spot_hi = min(int(sweet_spot * k), len(ids))
    target = (spot_lo + spot_hi) // 2
    return ranked[target - 1]


def spr_topk_with_prior(
    session: "CrowdSession",
    item_ids: list[int],
    k: int,
    priors: Mapping[int, float],
    config: SPRConfig | None = None,
) -> SPRResult:
    """SPR with the sampling phase replaced by a prior-guided reference.

    The prior only influences *which* reference partitions the items —
    every comparison still carries the configured confidence guarantee, so
    a bad prior costs money, not correctness (§5.4).
    """
    config = config if config is not None else SPRConfig(comparison=session.config)
    ids = list(dict.fromkeys(int(i) for i in item_ids))
    if len(ids) != len(list(item_ids)):
        raise AlgorithmError("item_ids must not contain duplicates")
    if not 1 <= k <= len(ids):
        raise AlgorithmError(f"k must be in [1, {len(ids)}], got {k}")
    cost_before, rounds_before = session.spent()

    if k == len(ids) or len(ids) < config.min_items_for_selection:
        ranked = reference_sort(session, ids, reference=None)
        cost_after, rounds_after = session.spent()
        return SPRResult(
            topk=tuple(ranked[:k]),
            selection=None,
            partition_result=None,
            recursed=False,
            cost=cost_after - cost_before,
            rounds=rounds_after - rounds_before,
        )

    reference = prior_reference(ids, k, priors, config.sweet_spot)
    part = partition(
        session, ids, k, reference,
        max_reference_changes=config.max_reference_changes,
    )
    winners = list(part.winners)
    ties = list(part.ties)
    losers = list(part.losers)

    recursed = False
    promoted: tuple[int, ...] = ()
    if len(winners) >= k:
        # Same blow-up guard as plain SPR, but more likely to matter here:
        # a badly wrong prior can put the reference near the bottom, making
        # almost every item a "winner" — sorting that set costs O(|W|²·B).
        # Re-querying the winners with sampling-based SPR caps the damage
        # at one extra (normal-priced) query.
        blow_up = len(winners) > max(
            math.ceil(3 * config.sweet_spot * k), config.min_items_for_selection
        )
        if blow_up:
            inner = spr_topk(session, winners, k, config)
            cost_after, rounds_after = session.spent()
            return SPRResult(
                topk=inner.topk,
                selection=inner.selection,
                partition_result=part,
                recursed=True,
                cost=cost_after - cost_before,
                rounds=rounds_after - rounds_before,
            )
        candidates = winners
    elif len(winners) + len(ties) >= k:
        shortfall = k - len(winners)
        pick = session.rng.choice(len(ties), size=shortfall, replace=False)
        promoted = tuple(ties[int(p)] for p in pick)
        candidates = winners + list(promoted)
    else:
        recursed = True
        shortfall = k - len(winners) - len(ties)
        tail = spr_topk_with_prior(session, losers, shortfall, priors, config)
        candidates = winners + ties + list(tail.topk)

    ranked = reference_sort(session, candidates, reference=part.reference)
    cost_after, rounds_after = session.spent()
    return SPRResult(
        topk=tuple(ranked[:k]),
        selection=None,
        partition_result=part,
        recursed=recursed,
        cost=cost_after - cost_before,
        rounds=rounds_after - rounds_before,
        promoted_ties=promoted,
    )
