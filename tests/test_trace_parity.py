"""Parity of three small comparison traces across refactors.

Each scenario pins a session's whole observable behaviour: every
:class:`~repro.core.comparison.ComparisonRecord` its compare listeners
see, an end-of-run summary and six spending counters.

* ``comp_chain`` — sequential COMP calls (Algorithm 1): fresh pairs, a
  replay and a flipped replay from the judgment cache.
* ``racing_group`` — one ``compare_many`` group raced in parallel
  (§5.5), with a pair and its reverse in the same group.
* ``spr_small`` — a full SPR query over 12 latent-score items.  Selection
  runs in forks (whose listeners are cleared) and partitioning races
  without per-pair records, so the records cover only the ranking
  comparisons; the summary and counters pin the rest of the spending.

A trace is diffed structurally against ``tests/golden/<name>.json``:
ints and outcomes exactly, floats to a relative tolerance, ``None`` (a
serialized NaN) only against ``None``.  A failure names the first
differing record and field, e.g. ``records[7].workload: expected 60,
got 50``.

The expected traces are written by ``scripts/gen_golden.py
trace_parity`` on a tree whose behaviour is known-good.  Regenerating is
only legitimate when a change alters what is bought on purpose and says
why (docs/testing.md).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.config import ComparisonConfig, SPRConfig
from repro.core.spr import spr_topk
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.telemetry import MetricsRegistry, use_registry

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance for float fields (absolute below 1.0).
FLOAT_TOL = 1e-6

#: Counters that summarize spending and racing.
PINNED_COUNTERS = (
    "crowd_comparisons_total",
    "crowd_microtasks_total",
    "crowd_cache_hits_total",
    "crowd_budget_ties_total",
    "oracle_judgments_total",
    "crowd_pool_rounds_total",
)


def record_to_dict(record) -> dict:
    """A JSON-safe view of one record (NaN → None)."""
    return {
        "left": int(record.left),
        "right": int(record.right),
        "outcome": record.outcome.name,
        "workload": int(record.workload),
        "cost": int(record.cost),
        "rounds": int(record.rounds),
        "mean": None if math.isnan(record.mean) else float(record.mean),
        "std": None if math.isnan(record.std) else float(record.std),
    }


def _recorded_session(oracle, config, seed: int) -> tuple[CrowdSession, list]:
    session = CrowdSession(oracle, config, seed=seed)
    records: list[dict] = []
    session.add_compare_listener(
        lambda _session, record: records.append(record_to_dict(record))
    )
    return session, records


def _session_summary(session: CrowdSession) -> dict:
    return {
        "total_cost": session.total_cost,
        "total_rounds": session.total_rounds,
        "cached_pairs": session.cache.pair_count,
        "cached_samples": session.cache.total_samples,
    }


def _trace(name, meta, records, summary, registry) -> dict:
    counters = {n: int(registry.counter_value(n)) for n in PINNED_COUNTERS}
    return {
        "name": name,
        "meta": meta,
        "records": records,
        "summary": summary,
        "counters": counters,
    }


def comp_chain() -> dict:
    """Sequential COMP calls: fresh pairs, a replay, and a flipped replay."""
    scores = np.array([0.0, 1.0, 2.0, 3.5, 5.0])
    oracle = LatentScoreOracle(scores, GaussianNoise(1.0))
    config = ComparisonConfig(confidence=0.95, budget=200, min_workload=5, batch_size=10)
    with use_registry(MetricsRegistry()) as registry:
        session, records = _recorded_session(oracle, config, seed=1234)
        for pair in [(4, 0), (3, 1), (1, 2), (4, 0), (0, 4), (2, 1)]:
            session.compare(*pair)
        meta = {"seed": 1234, "scores": scores.tolist()}
        return _trace("comp_chain", meta, records, _session_summary(session), registry)


def racing_group() -> dict:
    """One racing ``compare_many`` group with an in-group repeat."""
    scores = np.array([0.0, 0.8, 1.6, 2.4, 3.2, 4.0])
    oracle = LatentScoreOracle(scores, GaussianNoise(1.2))
    config = ComparisonConfig(confidence=0.95, budget=120, min_workload=5, batch_size=10)
    pairs = [[5, 0], [4, 1], [3, 2], [0, 5]]
    with use_registry(MetricsRegistry()) as registry:
        session, records = _recorded_session(oracle, config, seed=4321)
        session.compare_many([tuple(pair) for pair in pairs])
        meta = {"seed": 4321, "scores": scores.tolist(), "pairs": pairs}
        return _trace("racing_group", meta, records, _session_summary(session), registry)


def spr_small() -> dict:
    """A full SPR query, pinned mostly by its summary and counters."""
    scores = np.random.default_rng(99).normal(0.0, 3.0, 12)
    oracle = LatentScoreOracle(scores, GaussianNoise(1.0))
    config = ComparisonConfig(confidence=0.95, budget=150, min_workload=5, batch_size=10)
    with use_registry(MetricsRegistry()) as registry:
        session, records = _recorded_session(oracle, config, seed=77)
        result = spr_topk(session, list(range(12)), 3, SPRConfig(sweet_spot=1.5))
        part = result.partition_result
        summary = {
            "topk": [int(i) for i in result.topk],
            "cost": int(result.cost),
            "rounds": int(result.rounds),
            "recursed": bool(result.recursed),
            "reference": int(part.reference) if part is not None else None,
            "winners": len(part.winners) if part is not None else None,
            "ties": len(part.ties) if part is not None else None,
            "losers": len(part.losers) if part is not None else None,
            "reference_changes": (
                int(part.reference_changes) if part is not None else None
            ),
        }
        meta = {"dataset_seed": 99, "session_seed": 77, "n": 12, "k": 3}
        return _trace("spr_small", meta, records, summary, registry)


#: Golden name → zero-argument scenario.
TRACES = {"comp_chain": comp_chain, "racing_group": racing_group, "spr_small": spr_small}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _diff_value(path: str, expected: object, actual: object, tol: float) -> str | None:
    if expected is None and actual is None:
        return None
    if isinstance(expected, float) or isinstance(actual, float):
        if (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and abs(expected - actual) <= tol * max(1.0, abs(expected), abs(actual))
        ):
            return None
    elif expected == actual:
        return None
    return f"{path}: expected {expected!r}, got {actual!r}"


def diff_traces(expected: dict, actual: dict, tol: float = FLOAT_TOL) -> list[str]:
    """Structural differences between two traces, in order (empty = match)."""
    diffs: list[str] = []
    exp_records, act_records = expected["records"], actual["records"]
    if len(exp_records) != len(act_records):
        diffs.append(
            f"records: expected {len(exp_records)} comparison records, "
            f"got {len(act_records)}"
        )
    for idx, (exp, act) in enumerate(zip(exp_records, act_records)):
        for key in sorted(set(exp) | set(act)):
            diff = _diff_value(f"records[{idx}].{key}", exp.get(key), act.get(key), tol)
            if diff is not None:
                diffs.append(diff)
    for section in ("summary", "counters"):
        exp_section, act_section = expected[section], actual[section]
        for key in sorted(set(exp_section) | set(act_section)):
            if key not in exp_section:
                diffs.append(f"{section}.{key}: unexpected new entry {act_section[key]!r}")
            elif key not in act_section:
                diffs.append(f"{section}.{key}: missing (expected {exp_section[key]!r})")
            else:
                diff = _diff_value(
                    f"{section}.{key}", exp_section[key], act_section[key], tol
                )
                if diff is not None:
                    diffs.append(diff)
    return diffs


def _load(name: str) -> dict:
    return json.loads(golden_path(name).read_text(encoding="utf-8"))


@pytest.mark.faultfree  # the traces pin fault-free spending
@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_matches_golden(name):
    diffs = diff_traces(_load(name), TRACES[name]())
    assert not diffs, f"{name}: {len(diffs)} diffs\n" + "\n".join(diffs[:10])


@pytest.mark.faultfree
def test_tampered_pin_is_caught_and_named():
    expected = _load("comp_chain")
    expected["records"][0]["workload"] += 1
    diffs = diff_traces(expected, comp_chain())
    workload = expected["records"][0]["workload"]
    assert diffs == [f"records[0].workload: expected {workload}, got {workload - 1}"]


def _toy(**overrides) -> dict:
    trace = {
        "records": [
            {"left": 0, "right": 1, "outcome": "LEFT", "workload": 10,
             "cost": 10, "rounds": 1, "mean": 0.5, "std": 0.25},
        ],
        "summary": {"cost": 10, "rounds": 1},
        "counters": {"crowd_comparisons_total": 1},
    }
    trace.update(overrides)
    return trace


def _toy_record(**fields) -> list[dict]:
    return [{**_toy()["records"][0], **fields}]


class TestDiffTraces:
    def test_identical_traces_match(self):
        assert diff_traces(_toy(), _toy()) == []

    def test_float_within_tolerance_matches(self):
        assert diff_traces(_toy(), _toy(records=_toy_record(mean=0.5 + 1e-9))) == []

    def test_float_beyond_tolerance_named_by_field(self):
        diffs = diff_traces(_toy(), _toy(records=_toy_record(mean=0.6)))
        assert diffs == ["records[0].mean: expected 0.5, got 0.6"]

    def test_integer_fields_compare_exactly(self):
        diffs = diff_traces(_toy(), _toy(records=_toy_record(workload=11)))
        assert diffs == ["records[0].workload: expected 10, got 11"]

    def test_record_count_mismatch_reported(self):
        diffs = diff_traces(_toy(), _toy(records=[]))
        assert diffs == ["records: expected 1 comparison records, got 0"]

    def test_none_only_matches_none(self):
        # std serializes NaN as None; a number appearing there is a change.
        nan_std = _toy(records=_toy_record(std=None))
        assert diff_traces(nan_std, nan_std) == []
        assert diff_traces(_toy(), nan_std) == ["records[0].std: expected 0.25, got None"]
        assert diff_traces(nan_std, _toy()) == ["records[0].std: expected None, got 0.25"]

    def test_counter_drift_and_missing_keys_reported(self):
        drifted = _toy(counters={"crowd_comparisons_total": 2})
        assert diff_traces(_toy(), drifted) == [
            "counters.crowd_comparisons_total: expected 1, got 2"
        ]
        assert diff_traces(_toy(), _toy(counters={})) == [
            "counters.crowd_comparisons_total: missing (expected 1)"
        ]
        assert diff_traces(_toy(summary={}), _toy()) == [
            "summary.cost: unexpected new entry 10",
            "summary.rounds: unexpected new entry 1",
        ]
