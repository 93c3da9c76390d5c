"""Sessions, ledgers and forked judgment regimes."""

import numpy as np
import pytest

from repro.crowd.ledger import CostLedger, LatencyLedger
from repro.errors import BudgetExhaustedError
from tests.conftest import make_latent_session


class TestCostLedger:
    def test_charges_accumulate(self):
        ledger = CostLedger()
        ledger.charge(10)
        ledger.charge(5)
        assert ledger.microtasks == 15

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge(-1)

    def test_ceiling_enforced(self):
        ledger = CostLedger(ceiling=10)
        ledger.charge(10)
        with pytest.raises(BudgetExhaustedError):
            ledger.charge(1)

    def test_remaining(self):
        ledger = CostLedger(ceiling=10)
        ledger.charge(4)
        assert ledger.remaining == 6
        assert CostLedger().remaining is None

    def test_reset(self):
        ledger = CostLedger()
        ledger.charge(5)
        ledger.begin_comparisons(1)
        ledger.reset()
        assert ledger.microtasks == 0
        assert ledger.comparisons == 0


class TestLatencyLedger:
    def test_sequential_adds(self):
        ledger = LatencyLedger()
        ledger.add(3)
        ledger.add(2)
        assert ledger.rounds == 5

    def test_parallel_takes_max(self):
        ledger = LatencyLedger()
        ledger.add_parallel([3, 7, 2])
        assert ledger.rounds == 7

    def test_parallel_empty_group_is_free(self):
        ledger = LatencyLedger()
        ledger.add_parallel([])
        assert ledger.rounds == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyLedger().add(-1)


class TestSession:
    def test_compare_many_latency_is_max(self):
        session = make_latent_session(
            [0.0, 5.0, 0.2, 6.0], sigma=1.0, batch_size=5, seed=2
        )
        records = session.compare_many([(1, 0), (3, 2)])
        assert session.total_rounds == max(r.rounds for r in records)
        assert session.total_cost == sum(r.cost for r in records)

    def test_comparisons_counted(self, five_item_session):
        five_item_session.compare(1, 0)
        five_item_session.compare(2, 0)
        assert five_item_session.cost.comparisons == 2

    def test_session_ceiling_raises(self):
        session = make_latent_session([0.0, 0.1], sigma=2.0)
        session.cost.ceiling = 50
        with pytest.raises(BudgetExhaustedError):
            for _ in range(100):
                session.compare(0, 1)
                session.cache.clear()

    def test_fork_shares_ledgers(self, five_item_session):
        fork = five_item_session.fork(budget=100)
        fork.compare(4, 0)
        assert five_item_session.total_cost == fork.total_cost
        assert five_item_session.total_cost > 0

    def test_fork_with_config_change_keeps_cache(self, five_item_session):
        five_item_session.compare(4, 0)
        fork = five_item_session.fork(budget=500)
        record = fork.compare(4, 0)
        assert record.cost == 0  # served from the shared cache

    def test_fork_with_new_oracle_resets_cache(self, five_item_session):
        from repro.crowd.oracle import BinaryOracle

        five_item_session.compare(4, 0)
        fork = five_item_session.fork(
            oracle=BinaryOracle(five_item_session.oracle), estimator="hoeffding"
        )
        assert fork.cache is not five_item_session.cache
        assert fork.cache.total_samples == 0

    def test_moments_views_cache(self, five_item_session):
        record = five_item_session.compare(3, 0)
        n, mean, var = five_item_session.moments(3, 0)
        assert n == record.workload
        assert mean == pytest.approx(record.mean)

    def test_spent_snapshot(self, five_item_session):
        before = five_item_session.spent()
        five_item_session.compare(2, 1)
        cost, rounds = five_item_session.spent()
        assert cost > before[0]
        assert rounds >= before[1]

    def test_charge_passthrough(self, five_item_session):
        five_item_session.charge_cost(7)
        five_item_session.charge_rounds(3)
        assert five_item_session.total_cost == 7
        assert five_item_session.total_rounds == 3

    def test_deterministic_given_seed(self):
        a = make_latent_session([0.0, 1.0, 2.0], seed=42).compare(2, 0)
        b = make_latent_session([0.0, 1.0, 2.0], seed=42).compare(2, 0)
        assert a == b


class TestBatchedCharging:
    """The batched accounting twins equal their per-event counterparts."""

    def test_begin_comparisons_equals_n_begins(self):
        batched, sequential = CostLedger(), CostLedger()
        batched.begin_comparisons(7)
        for _ in range(7):
            sequential.begin_comparisons(1)
        assert batched.comparisons == sequential.comparisons == 7

    def test_begin_comparisons_rejects_negative(self):
        with pytest.raises(ValueError):
            CostLedger().begin_comparisons(-1)

    def test_charge_many_equals_split_calls(self):
        batched = make_latent_session([0.0, 5.0], seed=1)
        split = make_latent_session([0.0, 5.0], seed=1)
        batched.charge_many(40, rounds=4)
        batched.charge_many(12)
        split.charge_cost(40)
        split.charge_rounds(4)
        split.charge_cost(12)
        assert batched.total_cost == split.total_cost == 52
        assert batched.total_rounds == split.total_rounds == 4

    def test_charge_many_ceiling_leaves_latency_untouched(self):
        session = make_latent_session([0.0, 5.0], seed=1)
        session.cost.ceiling = 10
        with pytest.raises(BudgetExhaustedError):
            session.charge_many(11, rounds=3)
        # Cost first: the ceiling fires before latency is billed, exactly
        # as charge_cost followed by charge_rounds would behave.
        assert session.total_rounds == 0
        assert session.total_cost == 11
