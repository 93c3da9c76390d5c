"""Harness adapter exposing SPR through the common algorithm interface."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import SPRConfig
from ..core.spr import resume_spr_topk, spr_topk
from .base import TopKOutcome, measured, validate_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = ["resume_spr_adapter", "spr_adapter"]


def spr_adapter(
    session: "CrowdSession",
    item_ids: list[int],
    k: int,
    *,
    spr_config: SPRConfig | None = None,
) -> TopKOutcome:
    """Run SPR and wrap its result for the experiment harness.

    When no explicit :class:`SPRConfig` is given, one is derived from the
    session's comparison config so that sweeps over confidence / budget
    apply to SPR without extra plumbing.
    """
    ids = validate_query(item_ids, k)
    config = (
        spr_config
        if spr_config is not None
        else SPRConfig(comparison=session.config)
    )
    before = session.spent()
    result = spr_topk(session, ids, k, config)
    extras = {
        "recursed": result.recursed,
        "promoted_ties": result.promoted_ties,
    }
    if result.selection is not None:
        extras["plan_x"] = result.selection.plan.x
        extras["plan_m"] = result.selection.plan.m
        extras["plan_probability"] = result.selection.plan.probability
    if result.partition_result is not None:
        extras["reference"] = result.partition_result.reference
        extras["reference_changes"] = result.partition_result.reference_changes
        extras["partition_sizes"] = (
            len(result.partition_result.winners),
            len(result.partition_result.ties),
            len(result.partition_result.losers),
        )
    return measured("spr", session, list(result.topk), before, extras)


def resume_spr_adapter(session: "CrowdSession") -> TopKOutcome:
    """Finish a checkpointed SPR query and wrap it like :func:`spr_adapter`.

    The restored session's ledgers already hold the killed run's spend,
    so the outcome's cost and rounds are the whole query's.
    """
    result = resume_spr_topk(session)
    return measured("spr", session, list(result.topk), (0, 0), {"resumed": True})
