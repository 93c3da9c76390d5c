"""Turning a :class:`~repro.service.spec.QuerySpec` into an answer.

This is the canonical dispatch used by every front door — the
:class:`~repro.service.service.QueryService` workers, ``crowd-topk
query``/``submit``, and direct library calls — so a spec produces
bit-identical results no matter which door it entered through.  The
standalone ``spr_topk`` / ``bdp_topk`` entry points remain, but they are
now the thin layer: a spec is the full description, and
:func:`execute_spec` is one table lookup away from them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..algorithms import ALGORITHMS, RESUMERS
from ..algorithms.base import TopKOutcome
from ..datasets import load_dataset
from .spec import QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession
    from ..telemetry import MetricsRegistry

__all__ = ["execute_spec", "run_query", "session_for", "resume_session"]


def session_for(
    spec: QuerySpec,
    registry: "MetricsRegistry | None" = None,
) -> "tuple[CrowdSession, list[int]]":
    """Build the seeded session and working set a spec describes.

    The session is exactly what a standalone run would construct: same
    dataset oracle, same comparison config, same seed, and the
    spec's ``cost_sla`` as the hard cost ceiling — which is why a service
    run and a standalone run of the same spec consume identical draws.
    """
    if spec.dataset is None:
        raise ValueError("spec has no dataset; build the session yourself")
    dataset = load_dataset(spec.dataset)
    from ..crowd.session import CrowdSession  # deferred: session imports config

    session = CrowdSession(
        dataset.oracle,
        config=spec.comparison,
        seed=spec.seed,
        max_total_cost=spec.cost_sla,
        telemetry=registry,
    )
    return session, spec.resolve_items(dataset)


def execute_spec(
    session: "CrowdSession",
    spec: QuerySpec,
    items: list[int] | None = None,
) -> TopKOutcome:
    """Run ``spec`` on an existing session; the canonical dispatch.

    ``items`` defaults to the spec's resolved working set (requires a
    dataset-named spec).  The method table and keyword forwarding are
    the same for every caller, so two doors can never diverge.
    """
    if items is None:
        if spec.dataset is None:
            raise ValueError("spec has no dataset; pass items explicitly")
        items = spec.resolve_items(load_dataset(spec.dataset))
    algorithm = ALGORITHMS[spec.method]
    return algorithm(session, items, spec.k, **dict(spec.method_kwargs))


def resume_session(session: "CrowdSession", spec: QuerySpec) -> TopKOutcome:
    """Continue ``spec`` on a session restored from its checkpoint.

    Only the methods in :data:`~repro.algorithms.RESUMERS` carry
    resumable query state; the restored session's ``restored_state`` must
    hold it (the service guarantees this by pairing each checkpoint with
    its spec document).
    """
    if spec.method not in RESUMERS:
        raise ValueError(f"method {spec.method!r} does not support resume")
    return RESUMERS[spec.method](session)


def run_query(
    spec: QuerySpec,
    registry: "MetricsRegistry | None" = None,
) -> TopKOutcome:
    """Answer one spec start to finish, standalone (no service).

    The one-shot convenience door: builds the spec's session, dispatches
    the method, returns the outcome.  ``QueryService.submit`` of the
    same spec returns a bit-identical outcome — the service adds tenancy,
    SLAs, durability and sharing *around* this exact execution.
    """
    session, items = session_for(spec, registry)
    return execute_spec(session, spec, items)
