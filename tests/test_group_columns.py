"""A comparison group's columns agree with the records it builds.

:meth:`CrowdSession.compare_many` hands a group back as the columns of a
:class:`GroupRecords` (verdict codes, moments, costs, ...); readers of
wide groups take the columns, and a :class:`ComparisonRecord` list is
built only when a caller indexes or iterates the group.  This suite
holds the two views to each other bit for bit — across repeated and
flipped pairs, budget ties with a zero mean and degraded ties with no
judgments (a NaN mean) — and holds :func:`resolve_winners` to a loop of
:func:`resolve_winner`: the same winners and the same coin flips, drawn
from the session's RNG in record order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import ComparisonConfig, FaultPolicy, ResiliencePolicy, RetryPolicy
from repro.core.comparison import GroupRecords
from repro.core.outcomes import Outcome
from repro.core.sorting import resolve_winner, resolve_winners
from repro.crowd.oracle import JudgmentOracle, LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise

#: Repeats and both orientations of one pair, plus near-ties.
GROUP = [(0, 1), (2, 3), (1, 0), (4, 5), (3, 2), (0, 1), (6, 7), (5, 4)]


class Indifferent(JudgmentOracle):
    """Every judgment is exactly 0: each pair ties at the budget with a
    zero mean and a zero std."""

    bounds = (-1.0, 1.0)

    def draw_pairs(self, left, right, size, rng):
        return np.zeros((len(left), size))


def _bits(value: float) -> str:
    return "nan" if math.isnan(value) else float(value).hex()


def assert_columns_match_records(records: GroupRecords) -> None:
    built = list(records)
    assert len(built) == len(records)
    columns = [
        records.lefts.tolist(),
        records.rights.tolist(),
        records.codes.tolist(),
        records.workloads.tolist(),
        records.costs.tolist(),
        records.rounds.tolist(),
        [_bits(m) for m in records.means.tolist()],
        [_bits(s) for s in records.stds.tolist()],
    ]
    rows = [
        [
            r.left,
            r.right,
            r.outcome.value,
            r.workload,
            r.cost,
            r.rounds,
            _bits(r.mean),
            _bits(r.std),
        ]
        for r in built
    ]
    assert [list(row) for row in zip(*columns)] == rows
    assert records == built
    assert records[0] is built[0]  # built once


def _session(variant: str, seed: int) -> CrowdSession:
    config = dict(confidence=0.95, budget=60, min_workload=5, batch_size=10)
    oracle: JudgmentOracle = LatentScoreOracle(
        np.array([0.0, 0.1, 1.0, 1.05, 2.0, 2.0, 3.0, 3.3]), GaussianNoise(1.0)
    )
    if variant == "indifferent":
        oracle = Indifferent()
    elif variant == "degraded":
        # Most first rounds are lost and a pair degrades after one failed
        # round: ties with no judgments, whose mean is NaN.
        config["resilience"] = ResiliencePolicy(
            fault=FaultPolicy(outage_rate=0.6, seed=seed),
            retry=RetryPolicy(max_attempts=1),
        )
    return CrowdSession(oracle, ComparisonConfig(**config), seed=seed)


class TestColumnsMatchRecords:
    @pytest.mark.parametrize("variant", ["latent", "indifferent", "degraded"])
    def test_cold_and_replayed_groups(self, variant):
        seen = set()
        for seed in range(6):
            session = _session(variant, seed)
            for _ in range(2):  # the second group replays the cache
                records = session.compare_many(GROUP)
                assert_columns_match_records(records)
                for code, mean in zip(records.codes.tolist(), records.means.tolist()):
                    if code == 0:
                        seen.add("nan" if math.isnan(mean) else "zero" if mean == 0 else "tie")
        expected = {"indifferent": {"zero"}, "degraded": {"nan"}}.get(variant, set())
        assert expected <= seen

    def test_flipped_repeats_negate_code_and_mean(self):
        records = _session("latent", 3).compare_many(GROUP)
        assert records.codes[2] == -records.codes[0]
        assert records.means[2] == -records.means[0]
        assert records.costs[2] == 0 and records.costs[5] == 0
        assert records.workloads[2] == records.workloads[0]

    def test_empty_group(self):
        records = _session("latent", 0).compare_many([])
        assert records == [] and len(records) == 0
        assert records.codes.size == 0

    def test_single_compare_is_row_zero(self):
        one, many = _session("latent", 5), _session("latent", 5)
        assert one.compare(2, 3) == many.compare_many([(2, 3)])[0]


def _columns(codes, means) -> GroupRecords:
    n = len(codes)
    ints = np.arange(n, dtype=np.int64)
    return GroupRecords(
        2 * ints,
        2 * ints + 1,
        np.asarray(codes, dtype=np.int64),
        workloads=ints,
        costs=ints,
        rounds=ints,
        means=np.asarray(means, dtype=np.float64),
        stds=np.full(n, math.nan),
    )


class TestResolveWinners:
    def test_matches_resolve_winner_and_its_coin_flips(self):
        # Decided both ways, then ties: informative means of each sign,
        # and uninformative ones (zero, negative zero, NaN) that flip a
        # coin, interleaved so the flips' order shows.
        codes = [1, -1, 0, 0, 0, 1, 0, 0, -1, 0, 0]
        means = [0.5, -0.5, 0.25, 0.0, -1.5, math.nan, math.nan, -0.0, 2.0, 0.0, 1e-300]
        records = _columns(codes, means)
        for seed in range(20):
            batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = [resolve_winner(record, loop) for record in records]
            assert resolve_winners(records, batch).tolist() == expected
            assert batch.bit_generator.state == loop.bit_generator.state

    def test_decided_groups_draw_nothing(self):
        records = _columns([1, -1, 1], [0.0, math.nan, -2.0])
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert resolve_winners(records, rng).tolist() == [0, 3, 4]
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("variant", ["latent", "indifferent", "degraded"])
    def test_live_groups(self, variant):
        for seed in range(4):
            records = _session(variant, seed).compare_many(GROUP)
            batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = [resolve_winner(record, loop) for record in records]
            assert resolve_winners(records, batch).tolist() == expected
            assert batch.bit_generator.state == loop.bit_generator.state
            assert all(
                (record.outcome is Outcome.TIE) == (code == 0)
                for record, code in zip(records, records.codes.tolist())
            )
