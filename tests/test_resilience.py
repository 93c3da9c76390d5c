"""Fault injection, retry/backoff/deadline policies, and their accounting.

The resilience layer's central contract is twofold: with every fault rate
at zero, execution is bit-for-bit identical to a platform that never
fails; with faults on, lost work is never charged and undeliverable pairs
degrade to ties instead of wedging the query.
"""

import numpy as np
import pytest

from repro.config import (
    FAULT_RATE_ENV,
    ComparisonConfig,
    FaultPolicy,
    ResiliencePolicy,
    RetryPolicy,
    default_resilience,
)
from repro.core.outcomes import Outcome
from repro.crowd.faults import FaultInjector
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.pool import RacingPool
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import ConfigError
from repro.telemetry import MetricsRegistry, use_registry
from tests.conftest import make_latent_session, per_pair_compare_many

SCORES = [0.0, 1.5, 3.0, 4.5, 6.0, 7.5]


#: Run a group as one racing pool, and as one single comparison (a
#: one-pair group) per pair.
over_group_runners = pytest.mark.parametrize(
    "run",
    [CrowdSession.compare_many, per_pair_compare_many],
    ids=["racing", "sequential"],
)


def faulty_session(policy, retry=None, scores=SCORES, seed=0, **config_kwargs):
    """A latent-score session whose platform fails per ``policy``."""
    resilience = ResiliencePolicy(
        fault=policy, retry=retry if retry is not None else RetryPolicy()
    )
    return make_latent_session(
        scores, sigma=1.0, seed=seed, resilience=resilience, **config_kwargs
    )


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_rate": -0.1},
            {"loss_rate": 1.0},
            {"duplicate_rate": 2.0},
            {"outage_rate": -1e-9},
            {"timeout_rate": 0.6, "loss_rate": 0.5},  # sum must stay < 1
        ],
    )
    def test_bad_fault_rates_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -1},
            {"backoff_factor": 0.5},
            {"backoff_base": 4, "backoff_max": 2},
            {"deadline_rounds": 0},
        ],
    )
    def test_bad_retry_params_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_negative_checkpoint_cadence_rejected(self):
        with pytest.raises(ConfigError):
            ResiliencePolicy(checkpoint_every=-1)

    def test_resilience_must_be_policy(self):
        with pytest.raises(ConfigError):
            ComparisonConfig(resilience={"fault": {}})  # type: ignore[arg-type]

    def test_enabled_and_active_flags(self):
        assert not FaultPolicy().enabled
        assert FaultPolicy(loss_rate=0.1).enabled
        assert not ResiliencePolicy().active
        assert ResiliencePolicy(fault=FaultPolicy(timeout_rate=0.1)).active
        assert ResiliencePolicy(retry=RetryPolicy(deadline_rounds=5)).active

    def test_backoff_schedule_is_exponential_and_capped(self):
        retry = RetryPolicy(backoff_base=1, backoff_factor=2.0, backoff_max=16)
        assert [retry.backoff_rounds(f) for f in range(1, 7)] == [1, 2, 4, 8, 16, 16]
        assert retry.backoff_rounds(0) == 0
        assert RetryPolicy(backoff_base=0).backoff_rounds(3) == 0

    def test_injector_refuses_stacking(self):
        oracle = LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0))
        inner = FaultInjector(oracle, FaultPolicy(loss_rate=0.1))
        with pytest.raises(ValueError):
            FaultInjector(inner, FaultPolicy())


class TestEnvironmentKnob:
    def test_unset_means_no_faults(self, monkeypatch):
        monkeypatch.delenv(FAULT_RATE_ENV, raising=False)
        assert not default_resilience().active

    def test_rate_splits_between_timeout_and_loss(self, monkeypatch):
        monkeypatch.setenv(FAULT_RATE_ENV, "0.1")
        policy = default_resilience().fault
        assert policy.timeout_rate == pytest.approx(0.05)
        assert policy.loss_rate == pytest.approx(0.05)
        # ComparisonConfig built without an explicit policy inherits it.
        assert ComparisonConfig().resilience.active

    def test_zero_and_garbage_values(self, monkeypatch):
        monkeypatch.setenv(FAULT_RATE_ENV, "0")
        assert not default_resilience().active
        monkeypatch.setenv(FAULT_RATE_ENV, "not-a-float")
        with pytest.raises(ConfigError):
            default_resilience()


class TestAutoWrap:
    def test_session_wraps_oracle_when_faults_enabled(self):
        session = faulty_session(FaultPolicy(loss_rate=0.2))
        assert isinstance(session.oracle, FaultInjector)

    def test_session_leaves_oracle_bare_when_fault_free(self):
        session = make_latent_session(SCORES, resilience=ResiliencePolicy())
        assert not isinstance(session.oracle, FaultInjector)

    def test_fork_keeps_injector(self):
        session = faulty_session(FaultPolicy(loss_rate=0.2))
        fork = session.fork(budget=200)
        assert isinstance(fork.oracle, FaultInjector)

    def test_fork_rewraps_replacement_oracle(self):
        session = faulty_session(FaultPolicy(loss_rate=0.2))
        fresh = LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0))
        fork = session.fork(oracle=fresh)
        assert isinstance(fork.oracle, FaultInjector)
        assert fork.oracle.base is fresh


class TestZeroFaultBitIdentity:
    """force=True routes through the fault-aware path with no faults: the
    results must match the historical code path bit for bit."""

    @over_group_runners
    def test_forced_injector_matches_unwrapped(self, run):
        pairs = [(5, 0), (4, 1), (3, 2), (2, 1)]
        plain = make_latent_session(SCORES, seed=11, resilience=ResiliencePolicy())
        expected = run(plain, pairs)

        oracle = LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0))
        wrapped = CrowdSession(
            FaultInjector(oracle, FaultPolicy(), force=True),
            plain.config,
            seed=11,
        )
        assert run(wrapped, pairs) == expected
        assert wrapped.total_cost == plain.total_cost
        assert wrapped.total_rounds == plain.total_rounds

    def test_zero_rate_policy_does_not_wrap_or_disturb(self):
        plain = make_latent_session(SCORES, seed=3, resilience=ResiliencePolicy())
        config_zero = plain.config.with_(resilience=ResiliencePolicy())
        other = CrowdSession(
            LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0)),
            config_zero,
            seed=3,
        )
        assert other.compare(5, 0) == plain.compare(5, 0)


class TestFaultAccounting:
    def test_lost_tasks_are_never_charged(self):
        with use_registry(MetricsRegistry()) as registry:
            session = faulty_session(
                FaultPolicy(timeout_rate=0.2, loss_rate=0.1, seed=5), seed=5
            )
            session.compare_many([(5, 0), (4, 1), (3, 2)])
            drawn = registry.counter_value("oracle_judgments_total")
            dropped = registry.counter_value(
                "crowd_faults_total", mode="timeout"
            ) + registry.counter_value("crowd_faults_total", mode="loss")
        spent = session.total_cost
        assert dropped > 0
        # Every charged microtask is a delivered judgment: what the oracle
        # produced minus what the platform dropped bounds the bill.
        assert drawn - dropped >= spent

    def test_charged_work_is_cached(self):
        session = faulty_session(
            FaultPolicy(timeout_rate=0.15, loss_rate=0.1, duplicate_rate=0.1, seed=2),
            seed=2,
        )
        session.compare_many([(5, 0), (4, 1), (3, 2), (2, 0)])
        assert session.cache.total_samples == session.cost.microtasks

    def test_outage_burns_latency_but_no_cost(self):
        # outage_rate ~1 is forbidden; 0.97 makes the first rounds outages
        # with overwhelming probability under a pinned fault seed.
        session = faulty_session(
            FaultPolicy(outage_rate=0.97, seed=0),
            retry=RetryPolicy(max_attempts=2, backoff_base=0),
        )
        record = session.compare(5, 0)
        assert record.outcome is Outcome.TIE
        assert record.cost == 0
        assert record.rounds >= 2  # the clock ticked while the platform was down

    @over_group_runners
    def test_faults_count_into_the_sessions_registry(self, run):
        own = MetricsRegistry()
        events = []
        own.add_listener(events.append)
        policy = FaultPolicy(
            timeout_rate=0.15, loss_rate=0.1, duplicate_rate=0.1,
            outage_rate=0.05, seed=7,
        )
        resilience = ResiliencePolicy(fault=policy, retry=RetryPolicy())
        session = CrowdSession(
            LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0)),
            make_latent_session(SCORES, resilience=resilience).config,
            seed=7,
            telemetry=own,
        )
        with use_registry(MetricsRegistry()) as ambient:
            run(session, [(5, 0), (4, 1), (3, 2), (2, 0), (5, 1)])
        counted = {
            mode: own.counter_value("crowd_faults_total", mode=mode)
            for mode in ("timeout", "loss", "duplicate", "outage")
        }
        assert counted["timeout"] > 0 and counted["loss"] > 0
        fault_events = [e for e in events if e["type"] == "fault"]
        for mode, count in counted.items():
            assert sum(
                e["count"] for e in fault_events if e["mode"] == mode
            ) == count
        assert not ambient.snapshot()["counters"]

    def test_fault_telemetry_counts_by_mode(self):
        with use_registry(MetricsRegistry()) as registry:
            session = faulty_session(
                FaultPolicy(
                    timeout_rate=0.15,
                    loss_rate=0.1,
                    duplicate_rate=0.1,
                    outage_rate=0.05,
                    seed=7,
                ),
                seed=7,
            )
            session.compare_many([(5, 0), (4, 1), (3, 2), (2, 0), (5, 1)])
            for mode in ("timeout", "loss", "duplicate"):
                assert registry.counter_value("crowd_faults_total", mode=mode) > 0


class TestDegradeToTie:
    def test_exhausted_retries_degrade_to_tie(self):
        with use_registry(MetricsRegistry()) as registry:
            session = faulty_session(
                # Nothing ever delivers: timeout+loss ~ 0.98.
                FaultPolicy(timeout_rate=0.49, loss_rate=0.49, seed=1),
                retry=RetryPolicy(max_attempts=2, backoff_base=0),
                batch_size=2,
            )
            record = session.compare(5, 0)
            assert record.outcome is Outcome.TIE
            assert record.cost == 0
            assert (
                registry.counter_value("crowd_degraded_ties_total", reason="retries")
                >= 1
            )
            assert registry.counter_value("crowd_retries_total") >= 1

    def test_racing_pool_degrades_undeliverable_pairs(self):
        with use_registry(MetricsRegistry()) as registry:
            session = faulty_session(
                FaultPolicy(timeout_rate=0.49, loss_rate=0.49, seed=3),
                retry=RetryPolicy(max_attempts=2, backoff_base=0),
            )
            records = session.compare_many([(5, 0), (4, 1)])
            assert all(r.outcome is Outcome.TIE for r in records)
            assert (
                registry.counter_value("crowd_degraded_ties_total", reason="retries")
                >= 2
            )

    @over_group_runners
    def test_deadline_degrades_slow_pairs(self, run):
        with use_registry(MetricsRegistry()) as registry:
            # Close scores + tiny batches: no verdict inside one round, so
            # the 1-round deadline fires even on a fault-free platform.
            session = make_latent_session(
                [0.0, 0.01],
                sigma=3.0,
                seed=0,
                batch_size=5,
                min_workload=30,
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(deadline_rounds=1)
                ),
            )
            record = run(session, [(1, 0)])[0]
            assert record.outcome is Outcome.TIE
            assert (
                registry.counter_value("crowd_degraded_ties_total", reason="deadline")
                >= 1
            )

    def test_backoff_delays_reposting(self):
        # One pair, everything dropped: with backoff_base=2 and factor 2 the
        # retry waits stretch (2, 4, ...) so total rounds far exceed attempts.
        session = faulty_session(
            FaultPolicy(timeout_rate=0.49, loss_rate=0.49, seed=4),
            retry=RetryPolicy(max_attempts=3, backoff_base=2, backoff_factor=2.0),
            batch_size=2,
        )
        record = session.compare(5, 0)
        assert record.outcome is Outcome.TIE
        # 3 failed posts plus backoff waits of >= 2 + 4 rounds in between.
        assert record.rounds >= 5


class TestBudgetTieAccounting:
    """``crowd_budget_ties_total`` counts the ties whose judgments reached
    the per-pair budget, and no tie the resilience policy degraded."""

    @over_group_runners
    def test_degraded_ties_are_not_budget_ties(self, run):
        with use_registry(MetricsRegistry()) as registry:
            session = faulty_session(
                # Nothing ever delivers: timeout+loss ~ 0.98.
                FaultPolicy(timeout_rate=0.49, loss_rate=0.49, seed=1),
                retry=RetryPolicy(max_attempts=2, backoff_base=0),
                batch_size=2,
            )
            records = run(session, [(5, 0), (0, 5), (4, 1)])
            assert [r.outcome for r in records] == [Outcome.TIE] * 3
            assert all(r.cost == 0 for r in records)
            assert registry.counter_value(
                "crowd_degraded_ties_total", reason="retries"
            ) >= 2
            assert registry.counter_value("crowd_budget_ties_total") == 0

    def test_cached_budget_ties_still_count(self):
        with use_registry(MetricsRegistry()) as registry:
            # Equal scores and a tiny budget: the pair ties at the budget.
            session = make_latent_session(
                [0.0, 0.0], sigma=5.0, budget=6, batch_size=2
            )
            raced = session.compare(0, 1)
            assert raced.outcome is Outcome.TIE and raced.workload == 6
            assert registry.counter_value("crowd_budget_ties_total") == 1
            replayed = session.compare_many([(1, 0), (0, 1)])
            assert all(r.outcome is Outcome.TIE for r in replayed)
            assert all(r.cost == 0 and r.workload == 6 for r in replayed)
            assert registry.counter_value("crowd_budget_ties_total") == 3


class TestDeadlineBilling:
    """A comparison that reaches its deadline is billed ``deadline_rounds``
    rounds and no more: the call that only expires it is not a round."""

    DEADLINE = 4
    PAIRS = [(1, 0), (3, 2)]

    @staticmethod
    def _session(seed: int, rates: dict, deadline: int) -> CrowdSession:
        # A cold start of 10 one-sample rounds: no pair can decide before
        # the deadline expires it.
        return faulty_session(
            FaultPolicy(seed=seed, **rates),
            retry=RetryPolicy(deadline_rounds=deadline),
            scores=[0.0, 0.01, 0.02, 0.03],
            seed=seed,
            budget=40,
            min_workload=10,
            batch_size=1,
        )

    @pytest.mark.parametrize(
        "rates", [{}, {"timeout_rate": 0.4}], ids=["clean", "timeouts"]
    )
    def test_group_is_billed_its_deadline(self, rates):
        for seed in range(10):
            session = self._session(seed, rates, self.DEADLINE)
            records = session.compare_many(self.PAIRS)
            assert [r.outcome for r in records] == [Outcome.TIE] * 2
            assert [r.rounds for r in records] == [self.DEADLINE] * 2
            assert session.total_rounds == self.DEADLINE

    @pytest.mark.parametrize(
        "rates", [{}, {"timeout_rate": 0.4}], ids=["clean", "timeouts"]
    )
    def test_single_comparison_is_billed_its_deadline(self, rates):
        # Backoff waits may not run a single comparison past its deadline.
        for seed in range(10):
            session = self._session(seed, rates, self.DEADLINE)
            records = [session.compare(i, j) for i, j in self.PAIRS]
            assert [r.outcome for r in records] == [Outcome.TIE] * 2
            assert [r.rounds for r in records] == [self.DEADLINE] * 2
            assert session.total_rounds == 2 * self.DEADLINE


class TestFaultyPoolResolution:
    def test_faulty_racing_pool_still_finds_right_answers(self):
        session = faulty_session(
            FaultPolicy(timeout_rate=0.1, loss_rate=0.05, duplicate_rate=0.05, seed=9),
            seed=9,
        )
        pool = RacingPool(session, [(5, 0), (4, 0), (3, 0)])
        while not pool.is_done:
            pool.round()
        # Well-separated pairs: faults delay but do not flip verdicts.
        assert all(int(code) == 1 for code in pool.status[:3])

    def test_deterministic_given_fault_seed(self):
        def run():
            session = faulty_session(
                FaultPolicy(timeout_rate=0.2, loss_rate=0.1, seed=6), seed=6
            )
            records = session.compare_many([(5, 0), (4, 1), (3, 2)])
            return [
                (r.outcome, r.workload, r.cost, r.rounds) for r in records
            ], session.total_cost

        assert run() == run()
