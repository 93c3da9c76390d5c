"""Reference-based partitioning — Algorithm 4 (§5.2).

All remaining items race against the reference in lockstep batches of
microtasks (one :class:`~repro.crowd.pool.RacingPool` round = one latency
round), harvesting winners and losers as their comparisons resolve and
deferring the difficult pairs.  The deferment enables the *reference
change* optimization: as soon as ``k`` winners are confirmed, the k-th best
winner — provably between ``o*_k`` and the current reference (Lemma 4) —
takes over as reference, and the still-undecided items restart against it.

Following Line 13 of Algorithm 4 the final reference joins the winners when
fewer than ``k`` of them were confirmed; otherwise it is returned among the
losers (``k`` confirmed items already beat it).  The three groups therefore
always partition the input exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ...crowd.pool import RacingPool
from ...errors import AlgorithmError
from ..topk import top_k_indices

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...crowd.session import CrowdSession

__all__ = ["PartitionResult", "partition"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of reference-based partitioning.

    ``winners`` are confirmed superior to the (final) reference — with the
    reference appended when fewer than ``k`` items beat it; ``ties`` could
    not be separated from it within the per-pair budget; ``losers`` are
    confirmed inferior, including any replaced references.  The three lists
    partition the input item set.
    """

    winners: tuple[int, ...]
    ties: tuple[int, ...]
    losers: tuple[int, ...]
    reference: int
    reference_changes: int
    cost: int
    rounds: int


def _kth_best_winner(
    session: "CrowdSession",
    winners: list[int],
    reference: int,
    k: int,
    pool_means: dict[int, float] | None = None,
) -> int:
    """The k-th best confirmed winner, judged by observed means vs ``r``.

    Every winner's mean against the reference is already paid for — the
    racing pool hands it over (its running ``s1 / n``) the moment the pair
    resolves, and winners carried over a reference change fall back to the
    judgment cache's running moments.  The k-th largest sample mean is the
    free estimate of the k-th best item.
    """
    means = []
    for item in winners:
        mean = pool_means.get(item) if pool_means is not None else None
        if mean is None:
            _, mean, _ = session.moments(item, reference)
        means.append(mean if math.isfinite(mean) else math.inf)
    # Stable selection of the k-th largest mean: argpartition-based, with
    # ties resolved toward the earlier winner exactly like the stable
    # full sort this replaced.
    kth = top_k_indices(np.asarray(means, dtype=np.float64), k)[-1]
    return winners[int(kth)]


def partition(
    session: "CrowdSession",
    item_ids: list[int],
    k: int,
    reference: int,
    *,
    max_reference_changes: int = 2,
    step: int | None = None,
    checkpointing: bool = True,
    resume: dict | None = None,
) -> PartitionResult:
    """Partition ``item_ids`` against ``reference`` into winners/ties/losers.

    ``step`` is the per-round microtask batch per undecided pair (defaults
    to the session's batch size η).  ``max_reference_changes`` bounds the
    Table-4 reference-change optimization; 0 reproduces plain Algorithm 4
    without Lines 9-12.

    ``checkpointing=True`` registers this loop as the session's
    ``"partition"`` state provider and offers a checkpoint at every round
    boundary (a no-op unless the session has
    :meth:`~repro.crowd.session.CrowdSession.enable_checkpoints` on).
    Registration fails silently for nested invocations — only the
    outermost partitioning loop produces resumable state.  ``resume``
    takes the provider's persisted document and restarts the loop exactly
    where the checkpoint left it (``item_ids``/``k``/``reference`` are
    then read from the document, not the arguments).
    """
    if resume is not None:
        reference = int(resume["reference"])
        k = int(resume["k"])
        max_reference_changes = int(resume["max_reference_changes"])
        step = resume["step"]
        winners = [int(i) for i in resume["winners"]]
        losers = [int(i) for i in resume["losers"]]
        ties = [int(i) for i in resume["ties"]]
        changes = int(resume["changes"])
        cost_before = int(resume["cost_before"])
        rounds_before = int(resume["rounds_before"])
        pairs = [(int(a), int(b)) for a, b in resume["pool_pairs"]]
        pool = RacingPool(session, pairs, resume_state=resume["pool_state"])
        resolved_backlog: list[tuple[int, int]] = []
        pool_means = {
            int(item): float(mean) for item, mean in resume["pool_means"].items()
        }
    else:
        ids = [int(i) for i in item_ids]
        reference = int(reference)
        if reference not in ids:
            raise AlgorithmError(f"reference {reference} is not among the items")
        if not 1 <= k <= len(ids):
            raise AlgorithmError(f"k must be in [1, {len(ids)}], got {k}")
        if max_reference_changes < 0:
            raise AlgorithmError("max_reference_changes must be >= 0")

        cost_before, rounds_before = session.spent()
        winners = []
        losers = []
        ties = []
        changes = 0

        pending = [i for i in ids if i != reference]
        pool = RacingPool(session, [(item, reference) for item in pending])
        resolved_backlog = list(pool.initial_decisions)
        # Winner means vs the *current* reference, harvested as resolved.
        pool_means = {}

    telemetry = session.telemetry

    def _provider() -> dict:
        # Called at a round boundary: the backlog is folded, so the lists
        # plus the pool's exact numeric state describe the loop fully.
        active = pool.active_indices
        return {
            "k": k,
            "reference": reference,
            "max_reference_changes": max_reference_changes,
            "step": step,
            "winners": list(winners),
            "losers": list(losers),
            "ties": list(ties),
            "changes": changes,
            "cost_before": cost_before,
            "rounds_before": rounds_before,
            "pool_pairs": [
                [int(pool.left[i]), int(pool.right[i])] for i in active
            ],
            "pool_state": pool.snapshot_state(active),
            "pool_means": pool_means,
        }

    # The provider reads the loop variables through this closure, so it is
    # registered before the loop and sees every rebinding (pool restarts,
    # reference changes) up to the moment a checkpoint is pulled.
    owns_checkpoint = checkpointing and session.register_state_provider(
        "partition", _provider
    )

    try:
        while True:
            new_ties = 0
            for idx, code in resolved_backlog:
                item = int(pool.left[idx])
                if code > 0:
                    winners.append(item)
                    pool_means[item] = pool.mean(idx)
                elif code < 0:
                    losers.append(item)
                else:
                    ties.append(item)
                    new_ties += 1
                    logger.debug(
                        "deferment: item %d could not be separated from "
                        "reference %d within the per-pair budget", item, reference,
                    )
            if new_ties:
                # One batched charge per backlog fold instead of one
                # counter lookup per tie.
                telemetry.counter("spr_deferments_total").add(new_ties)
            resolved_backlog = []
            # Round boundary: publish the loop's progress, leaving the
            # pool's tallies to whoever reads it.
            session.publish_progress("partition", {
                "reference": reference,
                "reference_changes": changes,
                "winners": len(winners),
                "ties": len(ties),
                "losers": len(losers),
                "pool": pool.deferred_progress(step),
            })
            if owns_checkpoint:
                # Round boundary with the backlog folded: the one safe
                # point where the provider's document fully describes the
                # loop, so the cadence check lives here.
                session.maybe_checkpoint()

            # Lines 9-12: swap in a better reference once k winners exist
            # and undecided pairs remain to benefit from it.
            undecided = len(pool.active_indices) + len(ties)
            if (
                len(winners) >= k
                and changes < max_reference_changes
                and undecided > 0
            ):
                new_reference = _kth_best_winner(
                    session, winners, reference, k, pool_means
                )
                losers.append(reference)
                winners.remove(new_reference)
                restart = [int(pool.left[i]) for i in pool.active_indices] + ties
                ties = []
                pool_means = {}  # stale: measured vs the old reference
                telemetry.counter("spr_reference_changes_total").inc()
                telemetry.emit(
                    "reference_change",
                    old=int(reference),
                    new=int(new_reference),
                    change=changes + 1,
                    restarting=len(restart),
                )
                logger.info(
                    "reference change %d: %d -> %d with %d pairs restarting",
                    changes + 1, reference, new_reference, len(restart),
                )
                reference = new_reference
                changes += 1
                pool = RacingPool(session, [(item, reference) for item in restart])
                resolved_backlog = list(pool.initial_decisions)
                continue

            if pool.is_done:
                break
            resolved_backlog = pool.round(step)
    finally:
        if owns_checkpoint:
            session.unregister_state_provider("partition")
        session.publish_progress("partition", None)

    # Line 13: the reference is itself a top-k candidate when fewer than k
    # items beat it; otherwise it is dominated by k confirmed items.
    if len(winners) < k:
        winners.append(reference)
    else:
        losers.append(reference)

    cost_after, rounds_after = session.spent()
    return PartitionResult(
        winners=tuple(winners),
        ties=tuple(ties),
        losers=tuple(losers),
        reference=reference,
        reference_changes=changes,
        cost=cost_after - cost_before,
        rounds=rounds_after - rounds_before,
    )
