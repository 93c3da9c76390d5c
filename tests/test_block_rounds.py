"""Racing a group's rounds in blocks buys exactly what one call per round buys.

A comparison group (``compare_many``, ``compare``) calls
``RacingPool.round(ahead=True)``: the pool may then draw a block of
lockstep rounds in one oracle call, decide them in one stopping-rule
pass and commit them up to the first round that resolves a pair, then
set the generator back and draw the kept rounds again.  These tests hold
that to the one-round-per-call race (``_block_rounds`` pinned to 1) bit
for bit: records, cache, generator state, counters, histograms and
``pool_round`` events, also when a round's charge raises mid-block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ComparisonConfig, FaultPolicy, ResiliencePolicy, RetryPolicy
from repro.crowd.faults import FaultInjector
from repro.crowd.oracle import (
    HistogramOracle,
    LatentScoreOracle,
    RecordDatabaseOracle,
    UserTableOracle,
)
from repro.crowd.pool import RacingPool
from repro.crowd.session import CrowdSession
from repro.crowd.workers import CarelessWorkerNoise, GaussianNoise
from repro.datasets.peopleage import AgePerceptionOracle
from repro.errors import BudgetExhaustedError
from repro.telemetry import MetricsRegistry
from tests.test_dataset_parity import cache_digest, metric_digest

N_ITEMS = 8


def _histogram(ids: list[int]) -> HistogramOracle:
    rng = np.random.default_rng(5)
    support = np.array([1.0, 2.0, 3.5, 4.0, 6.0])
    return HistogramOracle(
        support, {item: rng.dirichlet(np.ones(support.size)) for item in ids}
    )


def _records() -> RecordDatabaseOracle:
    rng = np.random.default_rng(6)
    return RecordDatabaseOracle(
        {
            (i, j): rng.normal(size=int(rng.integers(1, 7)))
            for i in range(N_ITEMS)
            for j in range(i + 1, N_ITEMS)
        }
    )


SCORES = np.linspace(0.0, 1.0, N_ITEMS)

#: name -> (oracle factory, item ids)
ORACLES = {
    "histogram_dense": (lambda: _histogram(list(range(N_ITEMS))), list(range(N_ITEMS))),
    "histogram_sparse": (
        lambda: _histogram([3 + 7 * i for i in range(N_ITEMS)]),
        [3 + 7 * i for i in range(N_ITEMS)],
    ),
    "user_table": (
        lambda: UserTableOracle(np.random.default_rng(7).normal(size=(23, N_ITEMS))),
        list(range(N_ITEMS)),
    ),
    "latent_gaussian": (
        lambda: LatentScoreOracle(SCORES, GaussianNoise(1.5)),
        list(range(N_ITEMS)),
    ),
    "latent_careless": (
        lambda: LatentScoreOracle(SCORES, CarelessWorkerNoise(careless_rate=0.3)),
        list(range(N_ITEMS)),
    ),
    "record_database": (_records, list(range(N_ITEMS))),
    "age_perception": (
        lambda: AgePerceptionOracle(np.linspace(18.0, 60.0, N_ITEMS)),
        list(range(N_ITEMS)),
    ),
    "zero_fault_injector": (
        lambda: FaultInjector(LatentScoreOracle(SCORES), FaultPolicy()),
        list(range(N_ITEMS)),
    ),
}


class TestBlockDraw:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(ORACLES)),
        rounds=st.integers(1, 5),
        pairs=st.integers(1, 6),
        size=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_block_is_its_rounds_drawn_one_call_each(
        self, name, rounds, pairs, size, seed
    ):
        factory, ids = ORACLES[name]
        oracle = factory()
        picks = np.random.default_rng(seed).permuted(
            np.tile(np.asarray(ids), (pairs, 1)), axis=1
        )
        left, right = picks[:, 0], picks[:, 1]
        block_rng, round_rng = (np.random.default_rng(seed) for _ in range(2))

        block = oracle.draw_pairs(left, right, size, block_rng, rounds=rounds)
        looped = [oracle.draw_pairs(left, right, size, round_rng) for _ in range(rounds)]

        assert block.shape == (rounds, pairs, size)
        np.testing.assert_array_equal(block, np.stack(looped))
        assert block_rng.bit_generator.state == round_rng.bit_generator.state


def _session(
    registry: MetricsRegistry,
    *,
    oracle=None,
    max_total_cost: int | None = None,
    **config,
) -> CrowdSession:
    """Close user ratings race many rounds of a narrow batch."""
    settings = dict(
        confidence=0.95,
        budget=240,
        min_workload=4,
        batch_size=4,
        resilience=ResiliencePolicy(),
    )
    settings.update(config)
    if oracle is None:
        # Only replayable oracles race ahead (JudgmentOracle.replayable).
        ratings = np.random.default_rng(3).normal(size=(40, 12))
        ratings -= 0.3 * ratings.mean(axis=0)  # pull the items together
        oracle = UserTableOracle(ratings)
    return CrowdSession(
        oracle,
        ComparisonConfig(**settings),
        seed=11,
        max_total_cost=max_total_cost,
        telemetry=registry,
    )


#: Tail groups of 1, 2 and 4 pairs, some repeated, some reversed.
GROUPS = [
    [(0, 1)],
    [(2, 3), (4, 5)],
    [(6, 7), (8, 9), (10, 11), (1, 2)],
    [(1, 0)],
    [(3, 5), (7, 9)],
    [(0, 11), (2, 9), (4, 7), (5, 6)],
]


def _race(monkeypatch, lockstep: bool, groups=GROUPS, gate_raises_at=None, **kw):
    """Race ``groups`` through ``compare_many`` on a fresh session; what
    the race left behind, and how many ``round`` calls it took."""
    registry = MetricsRegistry()
    events: list[dict] = []
    registry.add_listener(
        lambda event: events.append(event) if event["type"] != "span" else None
    )
    session = _session(registry, **kw)
    calls = []
    with monkeypatch.context() as patch:
        if lockstep:
            patch.setattr(RacingPool, "_block_rounds", lambda self, *args: 1)
        original = RacingPool.round

        def counted(pool, *args, **kwargs):
            calls.append(args)
            return original(pool, *args, **kwargs)

        patch.setattr(RacingPool, "round", counted)
        if gate_raises_at is not None:
            seen = []

            def gate(microtasks):
                seen.append(microtasks)
                if len(seen) == gate_raises_at:
                    raise RuntimeError("spend gate closed")

            session.set_spend_gate(gate)
        records, error = [], None
        try:
            for group in groups:
                records.append(session.compare_many(group))
        except (BudgetExhaustedError, RuntimeError) as exc:
            error = type(exc).__name__
    columns = [
        {
            name: getattr(group, name).tolist()
            for name in ("lefts", "rights", "codes", "workloads", "costs", "rounds",
                         "means", "stds")
        }
        for group in records
    ]
    state = {
        "records": repr(columns),
        "error": error,
        "cache": cache_digest(session.cache),
        "rng": repr(session.rng.bit_generator.state),
        "metrics": metric_digest(registry),
        "events": events,
        "ledgers": (session.total_cost, session.total_rounds),
    }
    return state, len(calls)


class TestTwinSessions:
    """``compare_many`` racing in blocks against its one-round twin."""

    def _assert_twins(self, monkeypatch, **kw):
        blocked, block_calls = _race(monkeypatch, lockstep=False, **kw)
        lockstep, round_calls = _race(monkeypatch, lockstep=True, **kw)
        assert blocked == lockstep
        return blocked, block_calls, round_calls

    def test_tail_groups_match_one_round_calls(self, monkeypatch):
        state, block_calls, round_calls = self._assert_twins(monkeypatch)
        assert state["error"] is None
        assert block_calls < round_calls  # the blocks did race ahead
        assert any(event["type"] == "pool_round" for event in state["events"])

    @pytest.mark.parametrize("ceiling", [37, 150, 421])
    def test_a_cost_ceiling_crossed_mid_block(self, monkeypatch, ceiling):
        state, _, _ = self._assert_twins(monkeypatch, max_total_cost=ceiling)
        assert state["error"] == "BudgetExhaustedError"

    @pytest.mark.parametrize("raises_at", [2, 5, 9, 23])
    def test_a_spend_gate_raising_on_its_jth_call(self, monkeypatch, raises_at):
        state, _, _ = self._assert_twins(monkeypatch, gate_raises_at=raises_at)
        assert state["error"] == "RuntimeError"

    def test_stein_tester(self, monkeypatch):
        self._assert_twins(monkeypatch, estimator="stein")

    @pytest.mark.parametrize("deadline", [1, 3, 7])
    def test_deadline_rounds(self, monkeypatch, deadline):
        state, _, _ = self._assert_twins(
            monkeypatch,
            resilience=ResiliencePolicy(retry=RetryPolicy(deadline_rounds=deadline)),
        )
        assert any(event["type"] == "degraded_tie" for event in state["events"])

    def test_dataset_oracle(self, monkeypatch):
        oracle = ORACLES["histogram_sparse"][0]()
        ids = ORACLES["histogram_sparse"][1]
        groups = [[(ids[a], ids[b]) for a, b in group if b < N_ITEMS and a < N_ITEMS]
                  for group in GROUPS]
        self._assert_twins(
            monkeypatch, groups=[g for g in groups if g], oracle=oracle
        )


class TestPoolStateWhenAChargeRaises:
    """A charge that raises mid-block leaves the pool as the one-round
    race leaves it after that round."""

    @pytest.mark.parametrize("ceiling", [20, 61, 97, 133])
    def test_pool_cache_and_generator(self, monkeypatch, ceiling):
        def run(lockstep):
            registry = MetricsRegistry()
            session = _session(registry, max_total_cost=ceiling)
            pool = RacingPool(session, [(0, 1), (4, 5)], charge_latency=False)
            with monkeypatch.context() as patch:
                if lockstep:
                    patch.setattr(RacingPool, "_block_rounds", lambda self, *a: 1)
                with pytest.raises(BudgetExhaustedError):
                    while not pool.is_done:
                        pool.round(ahead=True)
            return (
                pool.n.tolist(),
                [float(x).hex() for x in pool.s1],
                [float(x).hex() for x in pool.s2],
                pool.status.tolist(),
                pool._rounds_done,
                cache_digest(session.cache),
                repr(session.rng.bit_generator.state),
                metric_digest(registry),
            )

        assert run(lockstep=False) == run(lockstep=True)


@pytest.mark.faultfree  # a faulty platform races one round per call
def test_a_one_pair_group_races_ahead():
    """A one-pair group racing many rounds takes fewer ``round`` calls
    than rounds."""
    registry = MetricsRegistry()
    session = _session(registry, resilience=ResiliencePolicy())
    pool = RacingPool(session, [(2, 3)], charge_latency=False)
    calls = 0
    while not pool.is_done:
        pool.round(ahead=True)
        calls += 1
    assert pool._rounds_done >= 4
    assert calls < pool._rounds_done
    assert registry.counter_value("crowd_pool_rounds_total") == pool._rounds_done


@pytest.mark.faultfree
def test_a_block_reaches_the_deadline_round():
    """A block races every round up to ``deadline_rounds``: seven rounds
    of an undecided pair take blocks of 2 and 5 rounds, then one call
    that expires the pair."""
    registry = MetricsRegistry()
    session = _session(
        registry, resilience=ResiliencePolicy(retry=RetryPolicy(deadline_rounds=7))
    )
    pool = RacingPool(session, [(2, 3)], charge_latency=False)
    blocks = []
    while not pool.is_done:
        before = pool._rounds_done
        pool.round(ahead=True)
        blocks.append(pool._rounds_done - before)
    assert blocks == [2, 5, 0]
    assert registry.counter_value("crowd_pool_rounds_total") == 7
