"""Top-k algorithms: SPR's competitors and the non-confidence-aware methods.

Every algorithm consumes a :class:`~repro.crowd.session.CrowdSession` and
returns a :class:`~repro.algorithms.base.TopKOutcome`, so TMC / latency /
quality are measured identically across methods.  ``ALGORITHMS`` maps the
names used by the experiment harness to the implementations.
"""

from .base import TopKOutcome
from .bdp import BDPRanker, bdp_topk, resume_bdp_topk
from .crowdbt import crowdbt_topk
from .fullsort import fullsort_topk
from .heapsort import heapsort_topk
from .heuristics import borda_topk, elo_topk
from .hybrid import hybrid_spr_topk, hybrid_topk
from .infimum import infimum_estimate
from .pbr import pbr_topk
from .quickselect import quickselect_topk
from .spr_adapter import resume_spr_adapter, spr_adapter
from .tournament import tournament_topk

__all__ = [
    "ALGORITHMS",
    "BDPRanker",
    "RESUMERS",
    "TopKOutcome",
    "bdp_topk",
    "borda_topk",
    "crowdbt_topk",
    "elo_topk",
    "fullsort_topk",
    "heapsort_topk",
    "hybrid_spr_topk",
    "hybrid_topk",
    "infimum_estimate",
    "pbr_topk",
    "quickselect_topk",
    "resume_bdp_topk",
    "spr_adapter",
    "tournament_topk",
]

#: Confidence-aware methods runnable through the generic harness.
ALGORITHMS = {
    "spr": spr_adapter,
    "bdp": bdp_topk,
    "tournament": tournament_topk,
    "heapsort": heapsort_topk,
    "quickselect": quickselect_topk,
    "pbr": pbr_topk,
    "fullsort": fullsort_topk,
}

#: Methods that can finish a query from a restored checkpoint, each mapped
#: to ``session -> TopKOutcome``.  Every other method restarts from scratch
#: (deterministically, same seed) after a crash.
RESUMERS = {
    "spr": resume_spr_adapter,
    "bdp": resume_bdp_topk,
}
