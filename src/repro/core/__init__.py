"""Core machinery: items, comparison processes, estimators, and SPR."""

from .cache import JudgmentCache
from .comparison import ComparisonRecord
from .items import ItemSet
from .outcomes import Outcome
from .topk import top_k_indices

__all__ = [
    "ComparisonRecord",
    "ItemSet",
    "JudgmentCache",
    "Outcome",
    "top_k_indices",
]
