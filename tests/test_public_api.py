"""Public-API hygiene: exports resolve, are documented, and stay stable."""

import importlib
import pathlib

import pytest

import repro

#: Pinned snapshot of every name ``repro`` exports, sorted.  The top-level
#: package is the contract downstream code programs against; exports must
#: change deliberately, not as a side effect of refactors.  If the snapshot
#: test fails you either (a) removed or renamed a public name — a breaking
#: change needing a deprecation path — or (b) added one, in which case
#: update this list *and* document the newcomer.
PUBLIC_API = [
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
    "QueryPlan",
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
    "__version__",
    "bdp_topk",
    "cache_from_json",
    "cache_to_json",
    "crowdbt_topk",
    "default_resilience",
    "explain_query",
    "get_registry",
    "heapsort_topk",
    "hybrid_spr_topk",
    "hybrid_topk",
    "infimum_estimate",
    "kendall_tau",
    "load_cache",
    "load_checkpoint",
    "load_dataset",
    "ndcg_at_k",
    "parse_address",
    "partition",
    "pbr_topk",
    "plan_query",
    "quickselect_topk",
    "reference_sort",
    "resume_bdp_topk",
    "resume_spr_topk",
    "run_golden_suite",
    "run_guarantee_suite",
    "run_invariant_suite",
    "run_query",
    "save_cache",
    "save_checkpoint",
    "select_reference",
    "set_registry",
    "spec_from_document",
    "spr_topk",
    "stopping_from_document",
    "top_k_precision",
    "top_k_recall",
    "tournament_topk",
    "use_registry",
]


class TestPublicApiSnapshot:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_API

    def test_fault_tolerance_surface_is_public(self):
        # The resilience / checkpoint surface added for fault-tolerant
        # execution must stay importable from the package root.
        for name in (
            "FaultInjector",
            "FaultPolicy",
            "RetryPolicy",
            "ResiliencePolicy",
            "default_resilience",
            "save_checkpoint",
            "load_checkpoint",
            "resume_spr_topk",
            "run_invariant_suite",
        ):
            assert name in repro.__all__, name

    def test_observability_surface_is_public(self):
        # The live-observatory surface: HTTP server, flight recorder,
        # query board, and the explain-report builder.
        for name in (
            "ObservatoryServer",
            "QueryBoard",
            "FlightRecorder",
            "ExplainReport",
            "explain_query",
            "parse_address",
        ):
            assert name in repro.__all__, name

    def test_explain_has_one_trace_model(self):
        # Explain reads the flight recorder and the query's spans; the
        # old per-session trace module is gone, not kept as a second path.
        for name in ("QueryTrace", "trace_session", "ComparisonEvent", "PhaseSummary"):
            assert not hasattr(repro, name), name
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.tracing")

    def test_bdp_surface_is_public(self):
        # The second algorithm family: the BDP ranker, its resume entry
        # point, and the PAC / confidence stopping layer it plugs into.
        for name in (
            "BDPRanker",
            "bdp_topk",
            "resume_bdp_topk",
            "PACTester",
            "ConfidenceStopping",
            "PACStopping",
            "stopping_from_document",
        ):
            assert name in repro.__all__, name

    def test_validation_entry_points_are_public(self):
        for name in (
            "run_golden_suite",
            "run_guarantee_suite",
            "run_invariant_suite",
        ):
            assert name in repro.__all__, name

    def test_service_surface_is_public(self):
        # The multi-tenant service front door: the declarative spec, the
        # service and its handles, the shared cache, the one-shot runner,
        # the execution policy, and the service error family.
        for name in (
            "QueryService",
            "QuerySpec",
            "QueryHandle",
            "SharedJudgmentCache",
            "run_query",
            "spec_from_document",
            "ServiceError",
            "AdmissionError",
            "QueryCancelledError",
            "SLAExceededError",
        ):
            assert name in repro.__all__, name


class TestTopLevelExports:
    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_public_callables_are_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, undocumented

    def test_public_classes_are_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_core_entry_points_present(self):
        for name in (
            "spr_topk", "CrowdSession", "ComparisonConfig", "SPRConfig",
            "load_dataset", "ndcg_at_k", "plan_query", "explain_query",
            "save_cache",
        ):
            assert name in repro.__all__, name

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts[:2])


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        src = pathlib.Path(repro.__file__).parent
        missing = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            stripped = text.lstrip()
            if not stripped:  # empty __init__ placeholders are not allowed
                missing.append(str(path))
            elif not stripped.startswith(('"""', "'''")):
                missing.append(str(path))
        assert not missing, missing


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.crowd",
            "repro.core",
            "repro.algorithms",
            "repro.datasets",
            "repro.metrics",
            "repro.stats",
            "repro.experiments",
            "repro.extensions",
            "repro.service",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"
