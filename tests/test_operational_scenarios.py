"""Cross-subsystem operational scenarios.

Each test chains several subsystems the way a deployment would — these are
the seams unit tests cannot see.
"""

import numpy as np
import pytest

from repro import (
    ComparisonConfig,
    CrowdSession,
    FlightRecorder,
    LatentScoreOracle,
    MetricsRegistry,
    SPRConfig,
    explain_query,
    load_cache,
    ndcg_at_k,
    plan_query,
    save_cache,
    spr_topk,
    use_registry,
)
from repro.crowd.marketplace import MarketplaceModel, rounds_from_session
from repro.crowd.workers import GaussianNoise
from repro.crowd.workforce import Workforce, WorkforceOracle
from repro.extensions import insert_item, session_bill
from repro.stats.planning import predict_infimum_cost
from tests.conftest import make_items


SCORES = np.linspace(0.0, 8.0, 30)


def fresh_session(seed=0, **config_kwargs):
    defaults = dict(confidence=0.95, budget=500, min_workload=10, batch_size=10)
    defaults.update(config_kwargs)
    oracle = LatentScoreOracle(SCORES, GaussianNoise(0.8))
    return CrowdSession(oracle, ComparisonConfig(**defaults), seed=seed)


class TestPlanRunAuditLoop:
    def test_plan_then_run_then_bill(self):
        plan = plan_query(
            30, 5, target_precision=0.5, score_spread=float(SCORES.std()),
            noise_sigma=0.8,
        )
        session = fresh_session(seed=3, confidence=plan.config.confidence,
                                budget=plan.config.budget)
        result = spr_topk(
            session, list(range(30)), 5, SPRConfig(comparison=session.config)
        )
        bill = session_bill(session)
        assert bill.microtasks == result.cost
        # the plan's floor is a lower bound up to model error
        floor = predict_infimum_cost(
            SCORES, 5, 0.8, session.config.alpha,
            min_workload=10, budget=plan.config.budget,
        )
        assert bill.microtasks > 0.3 * floor

    def test_trace_marketplace_chain(self):
        session = fresh_session(seed=5)
        with use_registry(MetricsRegistry()):
            with FlightRecorder(capacity=None).attach(session=session) as recorder:
                result = spr_topk(session, list(range(30)), 4)
            explained = explain_query(session, recorder, result.topk, k=4)
        report = MarketplaceModel(n_workers=15).simulate(
            rounds_from_session(session), seed=1
        )
        assert report.tasks_posted >= session.total_cost
        assert report.hours > 0
        assert sum(row["cost"] for row in explained.phases) == session.total_cost


class TestPersistenceAcrossSubsystems:
    def test_query_persist_insert_next_day(self, tmp_path):
        day1 = fresh_session(seed=7)
        result = spr_topk(day1, list(range(29)), 5)  # item 29 arrives later
        save_cache(day1.cache, tmp_path / "bags.npz")

        day2 = fresh_session(seed=8)
        day2.cache = load_cache(tmp_path / "bags.npz")
        updated = insert_item(day2, list(result.topk), 29)
        assert updated.accepted  # item 29 has the best score
        assert updated.topk[0] == 29

    def test_workforce_sessions_share_nothing_but_the_pool(self):
        force = Workforce.generate(20, seed=1, spammer_rate=0.1)
        base = LatentScoreOracle(SCORES, GaussianNoise(0.8))
        oracle = WorkforceOracle(base, force)
        a = CrowdSession(oracle, ComparisonConfig(
            confidence=0.95, budget=500, min_workload=10), seed=1)
        b = CrowdSession(oracle, ComparisonConfig(
            confidence=0.95, budget=500, min_workload=10), seed=2)
        ra = spr_topk(a, list(range(30)), 3)
        rb = spr_topk(b, list(range(30)), 3)
        # independent bills, plausible answers from both
        assert a.total_cost > 0 and b.total_cost > 0
        items = make_items(SCORES)
        assert ndcg_at_k(items, ra.topk, 3) > 0.5
        assert ndcg_at_k(items, rb.topk, 3) > 0.5
        # the shared workforce answered for both sessions
        assert sum(oracle.answers_by_worker.values()) >= a.total_cost + b.total_cost


class TestRepeatedQueriesAmortize:
    def test_second_query_much_cheaper(self):
        session = fresh_session(seed=9)
        first = spr_topk(session, list(range(30)), 5)
        second = spr_topk(session, list(range(30)), 5)
        assert second.cost < first.cost * 0.6

    @pytest.mark.faultfree  # cost comparison pinned to fault-free draws
    def test_growing_k_cheaper_warm_than_cold(self):
        # Re-querying with a larger k on the same session (warm bags) must
        # undercut the same k=8 query on a cold session: the selection and
        # partition machinery differs per k, but most pairwise evidence
        # transfers through the cache.
        warm = fresh_session(seed=10)
        spr_topk(warm, list(range(30)), 5)
        cost_after_first = warm.total_cost
        top8_warm = spr_topk(warm, list(range(30)), 8)
        incremental = warm.total_cost - cost_after_first

        cold = fresh_session(seed=10)
        spr_topk(cold, list(range(30)), 8)
        assert incremental < cold.total_cost
        assert len(top8_warm.topk) == 8
