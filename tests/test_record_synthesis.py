"""Batched record synthesis is field-for-field the historical per-row loop.

A racing group used to synthesize its ``ComparisonRecord`` list one row at
a time: ``pool.moments(slot)`` + orientation flip + one per-row
constructor call per occurrence (:func:`from_race` below keeps that
constructor as the reference).  The array-native rewrite computes the per-slot moments, the
flips and the fresh/replay masks in whole-group passes and builds every
record with one :meth:`ComparisonRecord.from_arrays` call.  This suite
pins the equivalence in both layers:

* unit: ``from_arrays`` equals element-wise :func:`from_race` on arrays that
  exercise every code sign, empty workloads and NaN moments;
* integration: the live engine's record stream equals a verbatim
  re-implementation of the historical per-row synthesis, run against a
  twin session with identical seeding — across student/stein/hoeffding
  estimators, cache replays, degraded (deadline) ties, fault retries and
  repeated/flipped pairs inside one group.

Equality is exact (order included, float bits included, NaN == NaN) —
this is a bit-parity contract, not a statistical one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import (
    ComparisonConfig,
    FaultPolicy,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.core.comparison import ComparisonRecord
from repro.core.outcomes import Outcome
from repro.crowd.group import plan_group, race_planned
from repro.crowd.oracle import BinaryOracle, LatentScoreOracle
from repro.crowd.pool import RacingPool
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.telemetry import MetricsRegistry, use_registry

pytestmark = pytest.mark.faultfree  # fault cases seed their own injector


def _float_key(value: float) -> str:
    return "nan" if math.isnan(value) else float(value).hex()


def _record_key(record: ComparisonRecord) -> tuple:
    """Every field, rendered bit-exactly (NaNs collapse to one token)."""
    return (
        record.left,
        record.right,
        record.outcome,
        record.workload,
        record.cost,
        record.rounds,
        _float_key(record.mean),
        _float_key(record.std),
    )


def from_race(
    left: int,
    right: int,
    code: int,
    *,
    workload: int,
    cost: int,
    rounds: int,
    mean: float,
    std: float,
) -> ComparisonRecord:
    """The reference per-row record: a racing pool's per-pair end state,
    ``code`` (``+1``/``-1``/``0``) oriented as ``(left, right)``, and NaN
    for the mean of an empty workload."""
    return ComparisonRecord(
        left=int(left),
        right=int(right),
        outcome=Outcome.from_code(code),
        workload=int(workload),
        cost=int(cost),
        rounds=int(rounds),
        mean=mean if workload else math.nan,
        std=std,
    )


def assert_streams_identical(actual, expected):
    assert [(_record_key(r), fresh) for r, fresh in actual] == [
        (_record_key(r), fresh) for r, fresh in expected
    ]


# ----------------------------------------------------------------------
# unit layer: from_arrays vs element-wise from_race
# ----------------------------------------------------------------------
class TestFromArrays:
    def test_matches_from_race_field_for_field(self):
        # Codes of every sign, an empty workload (NaN-mean substitution),
        # sub-2 workloads (NaN std) and a cache replay (cost 0).
        lefts = np.array([3, 7, 5, 2, 9], dtype=np.int64)
        rights = np.array([4, 1, 8, 6, 0], dtype=np.int64)
        codes = np.array([1, -1, 0, 0, -1], dtype=np.int64)
        workloads = np.array([12, 7, 0, 1, 30], dtype=np.int64)
        costs = np.array([12, 0, 0, 1, 25], dtype=np.int64)
        rounds = np.array([2, 0, 0, 1, 3], dtype=np.int64)
        means = np.array([0.75, -1.5, 123.0, 0.25, -0.0])
        stds = np.array([0.5, math.nan, math.nan, math.nan, 1.25])

        batched = ComparisonRecord.from_arrays(
            lefts,
            rights,
            codes,
            workloads=workloads,
            costs=costs,
            rounds=rounds,
            means=means,
            stds=stds,
        )
        reference = [
            from_race(
                int(lefts[i]),
                int(rights[i]),
                int(codes[i]),
                workload=int(workloads[i]),
                cost=int(costs[i]),
                rounds=int(rounds[i]),
                mean=float(means[i]),
                std=float(stds[i]),
            )
            for i in range(len(lefts))
        ]
        assert [_record_key(r) for r in batched] == [
            _record_key(r) for r in reference
        ]
        # Scalar field types survive .tolist() — no numpy scalars leak out.
        for record in batched:
            assert type(record.left) is int
            assert type(record.workload) is int
            assert type(record.mean) is float

    def test_empty_arrays_build_no_records(self):
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=float)
        assert (
            ComparisonRecord.from_arrays(
                empty_i,
                empty_i,
                empty_i,
                workloads=empty_i,
                costs=empty_i,
                rounds=empty_i,
                means=empty_f,
                stds=empty_f,
            )
            == []
        )


# ----------------------------------------------------------------------
# integration layer: the live engine vs the historical per-row loop
# ----------------------------------------------------------------------
def race(session, pairs):
    """The live engine's ``(record, fresh)`` stream for ``pairs``."""
    group = plan_group(pairs)
    records, _ = race_planned(session, group)
    return list(zip(records, group.fresh))


def historical_race(session, pairs):
    """The pre-rewrite per-row record synthesis, verbatim.

    The racing itself (RacingPool rounds) is the shared vectorized kernel;
    what this preserves is the *per-row* record synthesis that the batched
    ``from_arrays`` tail replaced — the reference the rewrite must match.
    """
    first_of: dict[tuple[int, int], int] = {}
    unique: list[tuple[int, int]] = []
    slot_of: list[int] = []
    for left, right in pairs:
        left, right = int(left), int(right)
        key = (left, right) if left < right else (right, left)
        slot = first_of.get(key)
        if slot is None:
            slot = len(unique)
            first_of[key] = slot
            unique.append((left, right))
        slot_of.append(slot)

    pool = RacingPool(session, unique, charge_latency=False)
    replayed = pool.n.copy()
    code_of = dict(pool.initial_decisions)
    rounds_of = [0] * len(unique)
    while not pool.is_done:
        for idx, code in pool.round():
            code_of[idx] = code
            rounds_of[idx] = pool._rounds_done

    records: list[tuple[ComparisonRecord, bool]] = []
    seen: set[int] = set()
    for (left, right), slot in zip(pairs, slot_of):
        left, right = int(left), int(right)
        fresh = slot not in seen
        seen.add(slot)
        workload, mean, var = pool.moments(slot)
        code = code_of.get(slot, 0)
        if (left, right) != unique[slot]:  # opposite orientation of the race
            code = -code
            mean = -mean
        records.append(
            (
                from_race(
                    left,
                    right,
                    code,
                    workload=workload,
                    cost=int(pool.n[slot] - replayed[slot]) if fresh else 0,
                    rounds=rounds_of[slot] if fresh else 0,
                    mean=mean,
                    std=math.sqrt(var) if not math.isnan(var) else math.nan,
                ),
                fresh,
            )
        )
    return records


N_ITEMS = 10

#: Repeats and both orientations of the same pair inside one group, so the
#: fresh/replay masks and the orientation flips are all exercised.
GROUP = [(0, 1), (2, 3), (1, 0), (4, 5), (3, 2), (0, 1), (6, 7), (8, 9)]


def _scores(seed: int) -> np.ndarray:
    return np.random.default_rng(seed + 400).normal(0.0, 2.0, N_ITEMS)


def _build(variant: str, seed: int) -> CrowdSession:
    base = dict(confidence=0.95, budget=120, min_workload=5, batch_size=10)
    if variant in ("stein", "hoeffding"):
        base["estimator"] = variant
    elif variant == "deadline":
        # Near-tied items + a tight deadline: pairs degrade to ties.
        base["resilience"] = ResiliencePolicy(retry=RetryPolicy(deadline_rounds=2))
    elif variant == "faulty":
        base["resilience"] = ResiliencePolicy(
            fault=FaultPolicy(
                timeout_rate=0.08,
                loss_rate=0.04,
                duplicate_rate=0.03,
                outage_rate=0.02,
                seed=seed,
            )
        )
    sigma = 6.0 if variant == "deadline" else 1.0
    oracle = LatentScoreOracle(_scores(seed), GaussianNoise(sigma))
    if variant == "hoeffding":
        oracle = BinaryOracle(oracle)
    return CrowdSession(oracle, ComparisonConfig(**base), seed=seed)


def _streams(variant: str, seed: int, warm: bool):
    """(engine stream, historical stream) from twin identically-seeded
    sessions; ``warm`` races the group once first so the measured call is
    served (partly or fully) from the judgment cache."""
    out = []
    for synthesize in (race, historical_race):
        with use_registry(MetricsRegistry()):
            session = _build(variant, seed)
            if warm:
                # Same engine call on both twins: identical RNG draw and
                # cache state going into the measured group.
                race(session, GROUP)
            out.append(synthesize(session, GROUP))
    return out


class TestEngineMatchesHistoricalSynthesis:
    @pytest.mark.parametrize("variant", ["student", "stein", "hoeffding"])
    def test_estimators_cold(self, variant):
        for seed in range(8):
            actual, expected = _streams(variant, seed, warm=False)
            assert_streams_identical(actual, expected)

    @pytest.mark.parametrize("variant", ["student", "stein"])
    def test_cache_replays(self, variant):
        for seed in range(8):
            actual, expected = _streams(variant, seed, warm=True)
            assert_streams_identical(actual, expected)
            # The warm pass must actually produce replays for the case to
            # mean anything: every record is served from the cache.
            assert all(r.from_cache or r.workload == 0 for r, _ in actual)

    def test_degraded_deadline_ties(self):
        saw_partial_tie = False
        for seed in range(10):
            actual, expected = _streams("deadline", seed, warm=False)
            assert_streams_identical(actual, expected)
            saw_partial_tie = saw_partial_tie or any(
                r.outcome.name == "TIE" and 0 < r.workload < 120
                for r, fresh in actual
                if fresh
            )
        assert saw_partial_tie, "deadline never degraded a pair to a tie"

    def test_fault_retries(self):
        for seed in range(10):
            actual, expected = _streams("faulty", seed, warm=False)
            assert_streams_identical(actual, expected)
