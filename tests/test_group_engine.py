"""Parity of the batched (racing) and sequential group-comparison engines.

The two engines consume the session RNG in different orders, so individual
judgments — and therefore seed-pinned workloads — differ between them.
What must hold regardless of engine:

* the accounting invariants (cost = consumed microtasks, group latency =
  max member rounds, cache bags = consumed draws);
* ``group_engine="sequential"`` reproducing the historical per-pair loop
  bit for bit;
* the two engines being statistically indistinguishable over many seeds.
"""

import math

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.outcomes import Outcome
from repro.crowd.group import race_group
from repro.crowd.oracle import JudgmentOracle, LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import ConfigError
from repro.telemetry import use_registry
from tests.conftest import make_latent_session

SCORES = [float(i) for i in range(12)]
GROUP = [(11, 0), (10, 1), (9, 2), (8, 3), (7, 4), (6, 5)]


def make_session(engine, seed=11, scores=SCORES, sigma=1.0, **kwargs):
    defaults = dict(
        min_workload=5, batch_size=10, budget=200, group_engine=engine
    )
    defaults.update(kwargs)
    return make_latent_session(scores, sigma=sigma, seed=seed, **defaults)


def assert_records_equal(actual, expected):
    """Field-wise record equality that treats NaN == NaN."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert (a.left, a.right, a.outcome) == (b.left, b.right, b.outcome)
        assert (a.workload, a.cost, a.rounds) == (b.workload, b.cost, b.rounds)
        for x, y in ((a.mean, b.mean), (a.std, b.std)):
            assert (math.isnan(x) and math.isnan(y)) or x == pytest.approx(y)


class TestRacingInvariants:
    @pytest.fixture(params=["student", "stein"])
    def session(self, request):
        return make_session("racing", estimator=request.param)

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
        session = make_session("racing", scores=[0.0, 0.0, 0.0], sigma=3.0,
                               budget=30, confidence=0.999)
        records = session.compare_many([(0, 1), (1, 2)])
        for record in records:
            assert record.outcome is Outcome.TIE
            assert record.workload == 30
        assert session.total_cost == 60


class TestSequentialEngine:
    def test_bit_for_bit_vs_manual_compare_loop(self):
        grouped = make_session("sequential")
        manual = make_session("sequential")
        records = grouped.compare_many(GROUP)
        expected = [manual.compare(i, j, charge_latency=False) for i, j in GROUP]
        manual.latency.add_parallel([r.rounds for r in expected])
        assert_records_equal(records, expected)
        assert grouped.spent() == manual.spent()
        assert grouped.cost.comparisons == manual.cost.comparisons

    def test_compare_group_alias_removed(self):
        # The deprecated alias warned for one release and is now gone:
        # compare / compare_many are the whole comparison surface.
        session = make_session("sequential")
        assert not hasattr(session, "compare_group")


class TestEngineParity:
    @pytest.mark.statistical
    def test_engines_statistically_indistinguishable(self):
        # >= 200 seeded groups; mixed difficulty so some pairs race long.
        scores = [0.0, 0.75, 1.5, 2.25, 4.5, 6.0, 8.0, 10.0]
        group = [(7, 0), (6, 1), (5, 2), (4, 3)]
        totals = {"racing": 0, "sequential": 0}
        agree = disagree = 0
        for seed in range(200):
            outcomes = {}
            for engine in ("racing", "sequential"):
                session = make_session(
                    engine, seed=seed, scores=scores, sigma=1.5, budget=120
                )
                records = session.compare_many(group)
                assert session.total_cost == sum(r.cost for r in records)
                totals[engine] += session.total_cost
                outcomes[engine] = [r.outcome for r in records]
            for a, b in zip(outcomes["racing"], outcomes["sequential"]):
                agree += a is b
                disagree += a is not b
        # Same verdicts almost always, and the same total spend within a
        # few percent: the engines draw the same judgment distribution.
        assert agree / (agree + disagree) >= 0.9
        assert totals["racing"] == pytest.approx(totals["sequential"], rel=0.1)


class TestDuplicatesAndOrientation:
    def test_repeats_inside_a_group_are_cache_replays(self):
        session = make_session("racing")
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

    @pytest.mark.parametrize("engine", ["racing", "sequential"])
    def test_self_pair_rejected_before_any_accounting(self, engine):
        session = make_session(engine)
        with pytest.raises(ValueError):
            session.compare_many([(4, 2), (3, 3)])
        assert session.cost.comparisons == 0
        assert session.spent() == (0, 0)

    @pytest.mark.parametrize("engine", ["racing", "sequential"])
    def test_empty_group(self, engine):
        session = make_session(engine)
        assert session.compare_many([]) == []
        assert race_group(session, []) == []
        assert session.spent() == (0, 0)


class TestTelemetry:
    def test_racing_counters_reconcile(self):
        pairs = GROUP + [(0, 11)]  # one in-group repeat, flipped
        with use_registry() as registry:
            session = make_session("racing")
            session.compare_many(pairs)
            session.compare_many(pairs)
        assert registry.counter_value("crowd_comparisons_total") == 2 * len(pairs)
        assert registry.counter_value("crowd_microtasks_total") == session.total_cost
        assert registry.counter_value("crowd_groups_total", engine="racing") == 2
        assert registry.counter_value("crowd_groups_total", engine="sequential") == 0
        # First call: the repeat is the only cache hit.  Second call: every
        # distinct pair replays from the cache, plus the repeat again.
        assert registry.counter_value("crowd_cache_hits_total") == 1 + len(GROUP) + 1
        assert registry.histogram("crowd_comparison_workload").count == 2 * len(pairs)

    def test_sequential_counters_reconcile(self):
        with use_registry() as registry:
            session = make_session("sequential")
            session.compare_many(GROUP)
        assert registry.counter_value("crowd_comparisons_total") == len(GROUP)
        assert registry.counter_value("crowd_microtasks_total") == session.total_cost
        assert registry.counter_value("crowd_groups_total", engine="sequential") == 1
        assert registry.counter_value("crowd_groups_total", engine="racing") == 0

    def test_ranking_primitives_route_through_racing_engine(self):
        from repro.core.sorting import crowd_max, odd_even_sort

        with use_registry() as registry:
            session = make_session("racing")
            best = crowd_max(session, list(range(12)))
            odd_even_sort(session, list(range(8)))
        assert best == 11
        assert registry.counter_value("crowd_groups_total", engine="racing") > 0
        assert registry.counter_value("crowd_groups_total", engine="sequential") == 0
        assert registry.counter_value("crowd_pool_rounds_total") > 0


class CountingOracle(JudgmentOracle):
    """Wrapper that counts every judgment the base oracle actually draws."""

    def __init__(self, base):
        self._base = base
        self.bounds = base.bounds
        self.draws = 0

    def draw(self, i, j, size, rng):
        self.draws += int(size)
        return self._base.draw(i, j, size, rng)

    def draw_pairs(self, left, right, size, rng):
        self.draws += len(left) * int(size)
        return self._base.draw_pairs(left, right, size, rng)


class TestOracleDrawAccounting:
    """``oracle_judgments_total`` equals the draws the oracle produced.

    Regression guard for a suspected double count: ``race_group`` at a
    minimal per-pair budget combined with a replay-cache hit in the same
    round.  The scenario is not reproducible — the counter is incremented
    once, in :meth:`RacingPool.round`, on the freshly drawn matrix, and
    replays never touch the oracle — so these tests pin the *correct*
    accounting against an independent tally at the oracle boundary.
    """

    def _session(self, oracle, **config_kwargs):
        defaults = dict(
            confidence=0.95, budget=30, min_workload=5, batch_size=10,
            group_engine="racing",
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
        oracle = CountingOracle(
            LatentScoreOracle(np.asarray(SCORES), GaussianNoise(1.0))
        )
        with use_registry() as registry:
            session = self._session(oracle, group_engine="sequential")
            session.compare_many(GROUP)
            session.compare_many(GROUP)
        assert registry.counter_value("oracle_judgments_total") == oracle.draws


class TestConfigKnob:
    def test_default_is_racing(self):
        assert ComparisonConfig().group_engine == "racing"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            ComparisonConfig(group_engine="bogus")
