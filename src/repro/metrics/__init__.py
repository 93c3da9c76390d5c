"""Quality metrics for top-k results (§6.2): NDCG and precision."""

from .ndcg import dcg, ndcg_at_k
from .ranking import top_k_precision

__all__ = [
    "dcg",
    "ndcg_at_k",
    "top_k_precision",
]
