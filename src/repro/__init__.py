"""crowd-topk — crowdsourced top-k queries by confidence-aware pairwise judgments.

A from-scratch reproduction of Kou, Li, Wang, U and Gong,
*Crowdsourced Top-k Queries by Confidence-Aware Pairwise Judgments*
(SIGMOD 2017): the pairwise preference judgment model with Student/Stein
confidence estimation, the Select-Partition-Rank (SPR) framework, every
baseline the paper evaluates, a simulated crowdsourcing platform with
cost/latency accounting, and an experiment harness regenerating every
table and figure.

Quickstart::

    from repro import load_dataset, spr_topk, SPRConfig, ndcg_at_k

    dataset = load_dataset("jester")
    session = dataset.session(seed=0)
    result = spr_topk(session, dataset.items.ids.tolist(), k=10)
    print(result.topk, session.total_cost, session.total_rounds)
    print(ndcg_at_k(dataset.items, result.topk, 10))
"""

from .algorithms import (
    ALGORITHMS,
    BDPRanker,
    TopKOutcome,
    bdp_topk,
    crowdbt_topk,
    heapsort_topk,
    hybrid_spr_topk,
    hybrid_topk,
    infimum_estimate,
    pbr_topk,
    quickselect_topk,
    resume_bdp_topk,
    tournament_topk,
)
from .config import (
    ComparisonConfig,
    FaultPolicy,
    ResiliencePolicy,
    RetryPolicy,
    SPRConfig,
    default_resilience,
)
from .core import ComparisonRecord, ItemSet, JudgmentCache, Outcome
from .core.estimators import PACTester
from .core.stopping import ConfidenceStopping, PACStopping, stopping_from_document
from .core.spr import (
    PartitionResult,
    SPRResult,
    SelectionResult,
    partition,
    reference_sort,
    resume_spr_topk,
    select_reference,
    spr_topk,
)
from .crowd import (
    BinaryOracle,
    CrowdSession,
    FaultInjector,
    HistogramOracle,
    JudgmentOracle,
    LatentScoreOracle,
    RacingPool,
    RecordDatabaseOracle,
    UserTableOracle,
)
from .datasets import DATASET_NAMES, Dataset, load_dataset
from .errors import (
    AdmissionError,
    AlgorithmError,
    BudgetExhaustedError,
    ConfigError,
    CrowdTopkError,
    DatasetError,
    OracleError,
    QueryCancelledError,
    ServiceError,
    SLAExceededError,
)
from .metrics import kendall_tau, ndcg_at_k, top_k_precision, top_k_recall
from .persistence import (
    cache_from_json,
    cache_to_json,
    load_cache,
    load_checkpoint,
    save_cache,
    save_checkpoint,
)
from .planner import QueryPlan, plan_query
from .reports import ExplainReport, explain_query
from .service import (
    QueryHandle,
    QueryService,
    QuerySpec,
    SharedJudgmentCache,
    run_query,
    spec_from_document,
)
from .telemetry import (
    FlightRecorder,
    JsonlSink,
    MetricsRegistry,
    ObservatoryServer,
    QueryBoard,
    get_registry,
    parse_address,
    set_registry,
    use_registry,
)
from .validation import run_golden_suite, run_guarantee_suite, run_invariant_suite

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AdmissionError",
    "AlgorithmError",
    "BDPRanker",
    "BinaryOracle",
    "BudgetExhaustedError",
    "ComparisonConfig",
    "ComparisonRecord",
    "ConfidenceStopping",
    "ConfigError",
    "CrowdSession",
    "CrowdTopkError",
    "DATASET_NAMES",
    "Dataset",
    "DatasetError",
    "ExplainReport",
    "FaultInjector",
    "FaultPolicy",
    "FlightRecorder",
    "HistogramOracle",
    "ItemSet",
    "JsonlSink",
    "JudgmentCache",
    "JudgmentOracle",
    "LatentScoreOracle",
    "MetricsRegistry",
    "ObservatoryServer",
    "OracleError",
    "Outcome",
    "PACStopping",
    "PACTester",
    "PartitionResult",
    "QueryBoard",
    "QueryCancelledError",
    "QueryHandle",
    "QueryService",
    "QuerySpec",
    "RacingPool",
    "RecordDatabaseOracle",
    "ResiliencePolicy",
    "RetryPolicy",
    "SLAExceededError",
    "SPRConfig",
    "SPRResult",
    "SelectionResult",
    "ServiceError",
    "SharedJudgmentCache",
    "TopKOutcome",
    "UserTableOracle",
    "bdp_topk",
    "crowdbt_topk",
    "heapsort_topk",
    "hybrid_spr_topk",
    "hybrid_topk",
    "infimum_estimate",
    "kendall_tau",
    "load_dataset",
    "ndcg_at_k",
    "QueryPlan",
    "cache_from_json",
    "cache_to_json",
    "default_resilience",
    "explain_query",
    "get_registry",
    "load_cache",
    "load_checkpoint",
    "parse_address",
    "partition",
    "plan_query",
    "run_golden_suite",
    "run_guarantee_suite",
    "run_invariant_suite",
    "save_cache",
    "save_checkpoint",
    "set_registry",
    "use_registry",
    "pbr_topk",
    "quickselect_topk",
    "reference_sort",
    "resume_bdp_topk",
    "resume_spr_topk",
    "run_query",
    "select_reference",
    "spec_from_document",
    "spr_topk",
    "stopping_from_document",
    "top_k_precision",
    "top_k_recall",
    "tournament_topk",
    "__version__",
]
