"""Racing comparison groups: accounting, replays and parity.

A racing group consumes the session RNG in a different order than a loop
of single comparisons, so individual judgments — and therefore
seed-pinned workloads — differ from that loop.  What must hold:

* the accounting invariants (cost = consumed microtasks, group latency =
  max member rounds, cache bags = consumed draws);
* racing being statistically indistinguishable from the per-pair loop
  (``tests.conftest.per_pair_compare_many``) over many seeds.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.outcomes import Outcome
from repro.crowd.group import plan_group, race_planned
from repro.crowd.oracle import JudgmentOracle, LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import ConfigError
from repro.telemetry import use_registry
from tests.conftest import make_latent_session, per_pair_compare_many

SCORES = [float(i) for i in range(12)]
GROUP = [(11, 0), (10, 1), (9, 2), (8, 3), (7, 4), (6, 5)]


def make_session(seed=11, scores=SCORES, sigma=1.0, **kwargs):
    defaults = dict(min_workload=5, batch_size=10, budget=200)
    defaults.update(kwargs)
    return make_latent_session(scores, sigma=sigma, seed=seed, **defaults)


class TestRacingInvariants:
    @pytest.fixture(params=["student", "stein"])
    def session(self, request):
        return make_session(estimator=request.param)

    def test_cost_latency_and_cache_accounting(self, session):
        records = session.compare_many(GROUP)
        assert [(r.left, r.right) for r in records] == GROUP
        # Cost is the sum over the group, latency its max (§5.5).
        assert session.total_cost == sum(r.cost for r in records)
        assert session.total_rounds == max(r.rounds for r in records)
        assert session.cost.comparisons == len(GROUP)
        for record in records:
            # Fresh pairs: the cache holds exactly the consumed draws.
            assert record.cost == record.workload
            assert session.cache.count(record.left, record.right) == record.workload
            n, mean, var = session.moments(record.left, record.right)
            assert n == record.workload
            assert record.mean == pytest.approx(mean)
            assert record.std == pytest.approx(math.sqrt(var))

    def test_stopping_rule_semantics(self, session):
        records = session.compare_many(GROUP)
        for record in records:
            assert record.workload <= session.config.effective_budget
            if record.outcome is not Outcome.TIE:
                # No verdict before the cold start I; the winner agrees with
                # the observed mean the verdict was reached on.
                assert record.workload >= session.config.min_workload
                assert record.winner is not None
                expected = record.left if record.mean > 0 else record.right
                assert record.winner == expected

    def test_second_group_is_a_free_replay(self, session):
        first = session.compare_many(GROUP)
        cost, rounds = session.spent()
        second = session.compare_many(GROUP)
        assert session.spent() == (cost, rounds)  # nothing new bought
        for a, b in zip(first, second):
            assert b.cost == 0 and b.rounds == 0
            assert b.from_cache
            assert b.outcome is a.outcome
            assert b.workload == a.workload

    def test_group_budget_tie(self):
        # Indistinguishable items: every pair must exhaust its budget.
        session = make_session(scores=[0.0, 0.0, 0.0], sigma=3.0,
                               budget=30, confidence=0.999)
        records = session.compare_many([(0, 1), (1, 2)])
        for record in records:
            assert record.outcome is Outcome.TIE
            assert record.workload == 30
        assert session.total_cost == 60


class TestPerPairParity:
    @pytest.mark.statistical
    def test_racing_and_per_pair_loop_indistinguishable(self):
        # >= 200 seeded groups; mixed difficulty so some pairs race long.
        scores = [0.0, 0.75, 1.5, 2.25, 4.5, 6.0, 8.0, 10.0]
        group = [(7, 0), (6, 1), (5, 2), (4, 3)]
        run = {
            "racing": CrowdSession.compare_many,
            "per_pair": per_pair_compare_many,
        }
        totals = {"racing": 0, "per_pair": 0}
        agree = disagree = 0
        for seed in range(200):
            outcomes = {}
            for side in run:
                session = make_session(
                    seed=seed, scores=scores, sigma=1.5, budget=120
                )
                records = run[side](session, group)
                assert session.total_cost == sum(r.cost for r in records)
                totals[side] += session.total_cost
                outcomes[side] = [r.outcome for r in records]
            for a, b in zip(outcomes["racing"], outcomes["per_pair"]):
                agree += a is b
                disagree += a is not b
        # Same verdicts almost always, and the same total spend within a
        # few percent: both draw the same judgment distribution.
        assert agree / (agree + disagree) >= 0.9
        assert totals["racing"] == pytest.approx(totals["per_pair"], rel=0.1)


class TestDuplicatesAndOrientation:
    def test_repeats_inside_a_group_are_cache_replays(self):
        session = make_session()
        first, repeat, flipped = session.compare_many([(5, 0), (5, 0), (0, 5)])
        assert first.cost > 0 and first.rounds > 0
        for replay in (repeat, flipped):
            assert replay.cost == 0 and replay.rounds == 0
            assert replay.from_cache
            assert replay.workload == first.workload
        assert repeat.outcome is first.outcome
        assert repeat.mean == pytest.approx(first.mean)
        assert flipped.outcome is first.outcome.flipped()
        assert flipped.mean == pytest.approx(-first.mean)
        # Only the first occurrence pays, and it alone sets the latency.
        assert session.total_cost == first.cost
        assert session.total_rounds == first.rounds

    def test_self_pair_rejected_before_any_accounting(self):
        session = make_session()
        with pytest.raises(ValueError):
            session.compare_many([(4, 2), (3, 3)])
        assert session.cost.comparisons == 0
        assert session.spent() == (0, 0)

    def test_empty_group(self):
        session = make_session()
        assert session.compare_many([]) == []
        assert race_planned(session, plan_group([]))[0] == []
        assert session.spent() == (0, 0)


class TestTelemetry:
    def test_racing_counters_reconcile(self):
        pairs = GROUP + [(0, 11)]  # one in-group repeat, flipped
        with use_registry() as registry:
            session = make_session()
            session.compare_many(pairs)
            session.compare_many(pairs)
        assert registry.counter_value("crowd_comparisons_total") == 2 * len(pairs)
        assert registry.counter_value("crowd_microtasks_total") == session.total_cost
        assert registry.counter_value("crowd_groups_total") == 2
        # First call: the repeat is the only cache hit.  Second call: every
        # distinct pair replays from the cache, plus the repeat again.
        assert registry.counter_value("crowd_cache_hits_total") == 1 + len(GROUP) + 1
        assert registry.histogram("crowd_comparison_workload").count == 2 * len(pairs)

    def test_ranking_primitives_route_through_racing_engine(self):
        from repro.core.sorting import crowd_max, odd_even_sort

        with use_registry() as registry:
            session = make_session()
            best = crowd_max(session, list(range(12)))
            odd_even_sort(session, list(range(8)))
        assert best == 11
        assert registry.counter_value("crowd_groups_total") > 0
        assert registry.counter_value("crowd_pool_rounds_total") > 0


class CountingOracle(JudgmentOracle):
    """Wrapper that counts every judgment the base oracle actually draws."""

    def __init__(self, base):
        self._base = base
        self.bounds = base.bounds
        self.draws = 0

    def draw_pairs(self, left, right, size, rng):
        self.draws += len(left) * int(size)
        return self._base.draw_pairs(left, right, size, rng)


class TestOracleDrawAccounting:
    """``oracle_judgments_total`` equals the draws the oracle produced.

    Regression guard for a suspected double count: a racing group at a
    minimal per-pair budget combined with a replay-cache hit in the same
    round.  The scenario is not reproducible — the counter is incremented
    once, in :meth:`RacingPool.round`, on the freshly drawn matrix, and
    replays never touch the oracle — so these tests pin the *correct*
    accounting against an independent tally at the oracle boundary.
    """

    def _session(self, oracle, **config_kwargs):
        defaults = dict(
            confidence=0.95, budget=30, min_workload=5, batch_size=10
        )
        defaults.update(config_kwargs)
        return CrowdSession(oracle, ComparisonConfig(**defaults), seed=17)

    def test_per_pair_budget_of_one_is_unconfigurable(self):
        # The alleged trigger — budget 1 — is rejected at construction:
        # a budget below the cold start I (>= 2) can never race.
        with pytest.raises(ConfigError):
            ComparisonConfig(budget=1)

    @pytest.mark.parametrize("budget", [5, 6, 30])
    def test_counter_matches_draws_with_replays_and_duplicates(self, budget):
        oracle = CountingOracle(
            LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0))
        )
        with use_registry() as registry:
            session = self._session(oracle, budget=budget, min_workload=5)
            session.compare_many(GROUP)                    # fresh races
            session.compare_many(GROUP)                    # pure replay round
            session.compare_many([(11, 0), (11, 0), (0, 11)])  # in-group dups
        drawn = registry.counter_value("oracle_judgments_total")
        assert drawn == oracle.draws
        # Consumption can be below the draw count (racing pools overdraw
        # the final batch), never above it.
        assert session.total_cost <= drawn

    def test_partial_replay_then_fresh_draws_same_round(self):
        # Bags hold 5 judgments per pair (budget ties), then a forked
        # session with a larger budget replays those 5 and races on —
        # cache replay and fresh draws inside one group.
        oracle = CountingOracle(
            LatentScoreOracle(np.asarray(SCORES) * 0.2, GaussianNoise(2.0))
        )
        with use_registry() as registry:
            session = self._session(oracle, budget=5, min_workload=5)
            first = session.compare_many(GROUP)
            assert all(r.outcome is Outcome.TIE for r in first)
            richer = session.fork(budget=60)
            richer.compare_many(GROUP)
            assert registry.counter_value("oracle_judgments_total") == oracle.draws
            assert registry.counter_value("crowd_microtasks_total") == (
                session.total_cost
            )

    def test_sequential_engine_counts_draws_identically(self):
        # Single comparisons race one-pair groups, one after another: a
        # fresh pass over the group, then a cached replay of it.
        oracle = CountingOracle(
            LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0))
        )
        with use_registry() as registry:
            session = self._session(oracle)
            for _ in range(2):
                for i, j in GROUP:
                    session.compare(i, j)
        assert registry.counter_value("oracle_judgments_total") == oracle.draws


class TestSurface:
    def test_compare_group_alias_removed(self):
        # The deprecated alias warned for one release and is now gone:
        # compare / compare_many are the whole comparison surface.
        assert not hasattr(make_session(), "compare_group")

    def test_config_has_no_group_engine_field(self):
        # Racing is the only way a group runs.
        assert "group_engine" not in {f.name for f in fields(ComparisonConfig)}
