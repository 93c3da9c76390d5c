"""Core machinery: items, comparison processes, estimators, and SPR."""

from .cache import JudgmentCache
from .comparison import ComparisonRecord, GroupRecords
from .items import ItemSet
from .outcomes import Outcome
from .topk import top_k_indices

__all__ = [
    "ComparisonRecord",
    "GroupRecords",
    "ItemSet",
    "JudgmentCache",
    "Outcome",
    "top_k_indices",
]
