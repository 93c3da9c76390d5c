"""Extensions beyond the paper's core contribution.

The paper's conclusion (§7) sketches follow-ups; one is implemented
here:

* :mod:`~repro.extensions.prior_selection` — use partial prior knowledge
  of item scores (à la Ciceri et al. [11]) to pick the reference without
  paying for the sampling phase.

Plus the Appendix-B operational material:

* :mod:`~repro.extensions.economics` — task categories, unit costs and
  dollar accounting for real crowdsourcing deployments.
"""

from .economics import (
    TASK_CATEGORIES,
    CostBreakdown,
    TaskCategory,
    dollars_for,
    session_bill,
)
from .prior_selection import prior_reference, spr_topk_with_prior

__all__ = [
    "CostBreakdown",
    "TASK_CATEGORIES",
    "TaskCategory",
    "dollars_for",
    "prior_reference",
    "session_bill",
    "spr_topk_with_prior",
]
