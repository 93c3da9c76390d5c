"""The SPR driver — Algorithm 2 (§5) plus the §5.4 accuracy analysis.

``spr_topk`` glues the three phases together:

1. **Select** a reference expected to land in the sweet spot (§5.1).
2. **Partition** every other item against it into winners / ties / losers
   with deferment and optional reference changes (§5.2).
3. **Rank** the k result candidates by Thurstone-seeded sorting (§5.3),
   recursing into the losers in the (rare) case the winners and ties
   cannot fill the result.

Tiny inputs skip phases 1-2 — with no room for sampling to pay off the
framework degenerates to a direct crowd sort, which is also the recursion
base case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from ...config import SPRConfig
from ...errors import AlgorithmError
from ...stats.reference import SamplingPlan
from .partition import PartitionResult, partition
from .rank import reference_sort
from .select import SelectionResult, select_reference

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...crowd.session import CrowdSession

__all__ = [
    "SPRResult",
    "spr_topk",
    "resume_spr_topk",
    "expected_precision_lower_bound",
]


@dataclass(frozen=True)
class SPRResult:
    """Result and diagnostics of one SPR query.

    Attributes
    ----------
    topk:
        The returned top-k items, best first.
    selection, partition_result:
        Phase diagnostics of the outermost SPR invocation (None when the
        input was small enough to sort directly).
    recursed:
        Whether Algorithm 2 had to recurse into the losers.
    cost, rounds:
        Microtasks and latency rounds consumed by this invocation
        (including recursion and ranking).
    """

    topk: tuple[int, ...]
    selection: SelectionResult | None
    partition_result: PartitionResult | None
    recursed: bool
    cost: int
    rounds: int
    promoted_ties: tuple[int, ...] = field(default=())


def expected_precision_lower_bound(alpha: float, c: float) -> float:
    """The §5.4 lower bound on expected precision, ``(1 − α) / c``.

    Each true top-k item survives partitioning with probability at least
    ``1 − α``; drawing k results out of the ≤ ck partition survivors keeps
    at least a ``1/c`` fraction — the ranking phase only refines this.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if c <= 1.0:
        raise ValueError(f"c must be > 1, got {c}")
    return (1.0 - alpha) / c


def spr_topk(
    session: "CrowdSession",
    item_ids: list[int],
    k: int,
    config: SPRConfig | None = None,
) -> SPRResult:
    """Answer the crowdsourced top-k query over ``item_ids`` with SPR."""
    config = config if config is not None else SPRConfig()
    ids = list(dict.fromkeys(int(i) for i in item_ids))
    if len(ids) != len(list(item_ids)):
        raise AlgorithmError("item_ids must not contain duplicates")
    if not 1 <= k <= len(ids):
        raise AlgorithmError(f"k must be in [1, {len(ids)}], got {k}")
    cost_before, rounds_before = session.spent()
    telemetry = session.telemetry

    # Degenerate / base cases: nothing to prune, just sort.
    if k == len(ids) or len(ids) < config.min_items_for_selection:
        with telemetry.span("spr.rank", session=session, items=len(ids), k=k):
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

    # Selection runs under a capped per-pair budget: a tie between two
    # candidate references marks them interchangeable, so the full budget
    # would be spent separating items whose order cannot matter (§5.4 —
    # selection errors only cost efficiency).  The shared cache carries the
    # purchased judgments into partitioning.
    selection_cap = config.selection_comparison_budget
    if selection_cap is None:
        selection_cap = 2 * session.config.min_workload
    selection_budget = min(session.config.effective_budget, selection_cap)
    selection_session = session.fork(budget=selection_budget)
    with telemetry.span("spr.select", session=session, items=len(ids), k=k):
        selection = select_reference(
            selection_session,
            ids,
            k,
            sweet_spot=config.sweet_spot,
            budget_factor=config.selection_budget_factor,
        )

    # Query-level state for checkpoint/resume: what surrounds the
    # partitioning loop.  Only the outermost SPR invocation owns the key;
    # recursive blow-up queries run without checkpointing — their state is
    # not resumable on its own.
    def _provider() -> dict:
        return {
            "items": list(ids),
            "k": k,
            "config": _spr_config_document(config),
            "selection": _selection_document(selection),
            "cost_before": cost_before,
            "rounds_before": rounds_before,
        }

    # The key stays owned until the query concludes, so a recursion in
    # the conclusion cannot checkpoint itself as if it were the query: a
    # crash there resumes from the last partition checkpoint instead.
    owns_checkpoint = session.register_state_provider("spr", _provider)
    try:
        with telemetry.span("spr.partition", session=session, items=len(ids), k=k):
            part = partition(
                session,
                ids,
                k,
                selection.reference,
                max_reference_changes=config.max_reference_changes,
                checkpointing=owns_checkpoint,
            )
        return _conclude(
            session, ids, k, config, selection, part, cost_before, rounds_before
        )
    finally:
        if owns_checkpoint:
            session.unregister_state_provider("spr")


def _spr_config_document(config: SPRConfig) -> dict:
    """The SPR knobs as a JSON document (the comparison config rides in the
    session's own checkpoint state)."""
    return {
        "sweet_spot": config.sweet_spot,
        "max_reference_changes": config.max_reference_changes,
        "selection_budget_factor": config.selection_budget_factor,
        "selection_comparison_budget": config.selection_comparison_budget,
        "min_items_for_selection": config.min_items_for_selection,
    }


def _selection_document(selection: SelectionResult) -> dict:
    return {
        "reference": selection.reference,
        "plan": asdict(selection.plan),
        "maxima": [int(i) for i in selection.maxima],
        "cost": selection.cost,
        "rounds": selection.rounds,
    }


def resume_spr_topk(session: "CrowdSession") -> SPRResult:
    """Finish an SPR query from a restored session's checkpoint state.

    ``session`` must come from :meth:`CrowdSession.restore` on a checkpoint
    written mid-partition: the selection phase is replayed from its
    persisted result (no re-sampling, no RNG consumption), the
    partitioning loop restarts from its exact racing state, and the query
    concludes identically — same top-k, same total cost — to the run that
    was killed.
    """
    state = session.restored_state
    if state is None:
        raise AlgorithmError("session carries no restored checkpoint state")
    query = state.get("query", {})
    if "spr" not in query or "partition" not in query:
        raise AlgorithmError(
            "checkpoint does not hold an in-flight SPR query "
            f"(query keys: {sorted(query)})"
        )
    spr_state = query["spr"]
    config = SPRConfig(comparison=session.config, **spr_state["config"])
    sel = spr_state["selection"]
    selection = SelectionResult(
        reference=int(sel["reference"]),
        plan=SamplingPlan(**sel["plan"]),
        maxima=tuple(int(i) for i in sel["maxima"]),
        cost=int(sel["cost"]),
        rounds=int(sel["rounds"]),
    )
    ids = [int(i) for i in spr_state["items"]]
    k = int(spr_state["k"])
    cost_before = int(spr_state["cost_before"])
    rounds_before = int(spr_state["rounds_before"])
    telemetry = session.telemetry

    def _provider() -> dict:
        return {
            "items": list(ids),
            "k": k,
            "config": _spr_config_document(config),
            "selection": _selection_document(selection),
            "cost_before": cost_before,
            "rounds_before": rounds_before,
        }

    owns_checkpoint = session.register_state_provider("spr", _provider)
    try:
        with telemetry.span("spr.partition", session=session, items=len(ids), k=k):
            part = partition(
                session,
                ids,
                k,
                selection.reference,
                checkpointing=owns_checkpoint,
                resume=query["partition"],
            )
        return _conclude(
            session, ids, k, config, selection, part, cost_before, rounds_before
        )
    finally:
        if owns_checkpoint:
            session.unregister_state_provider("spr")


def _conclude(
    session: "CrowdSession",
    ids: list[int],
    k: int,
    config: SPRConfig,
    selection: SelectionResult,
    part: PartitionResult,
    cost_before: int,
    rounds_before: int,
) -> SPRResult:
    """Lines 4-10 of Algorithm 2: turn a partition into the ranked top-k."""
    telemetry = session.telemetry
    winners = list(part.winners)
    ties = list(part.ties)
    losers = list(part.losers)

    recursed = False
    promoted: tuple[int, ...] = ()
    if len(winners) >= k:
        # Line 10: the winners already contain the answer.  With a
        # sweet-spot reference |W| <= ck with high probability; when low
        # confidence floods W with false winners far beyond that, sorting
        # all of them would cost O(|W|²·B) — re-querying the winners is an
        # order of magnitude cheaper and keeps every guarantee (they are a
        # strict superset of the answer).
        blow_up_at = max(
            math.ceil(3 * config.sweet_spot * k), config.min_items_for_selection
        )
        if len(winners) > blow_up_at:
            telemetry.counter("spr_recursions_total").inc()
            inner = spr_topk(session, winners, k, config)
            cost_after, rounds_after = session.spent()
            return SPRResult(
                topk=inner.topk,
                selection=selection,
                partition_result=part,
                recursed=True,
                cost=cost_after - cost_before,
                rounds=rounds_after - rounds_before,
            )
        candidates = winners
    elif len(winners) + len(ties) >= k:
        # Lines 4-6: fill up with random ties (§5.4 analyses this risk).
        shortfall = k - len(winners)
        pick = session.rng.choice(len(ties), size=shortfall, replace=False)
        promoted = tuple(ties[int(p)] for p in pick)
        candidates = winners + list(promoted)
    else:
        # Lines 7-9: even the ties cannot fill the result — recurse into
        # the losers for the remainder.
        recursed = True
        telemetry.counter("spr_recursions_total").inc()
        shortfall = k - len(winners) - len(ties)
        tail = spr_topk(session, losers, shortfall, config)
        candidates = winners + ties + list(tail.topk)

    with telemetry.span(
        "spr.rank", session=session, items=len(candidates), k=k
    ):
        ranked = reference_sort(session, candidates, reference=part.reference)
    cost_after, rounds_after = session.spent()
    return SPRResult(
        topk=tuple(ranked[:k]),
        selection=selection,
        partition_result=part,
        recursed=recursed,
        cost=cost_after - cost_before,
        rounds=rounds_after - rounds_before,
        promoted_ties=promoted,
    )
