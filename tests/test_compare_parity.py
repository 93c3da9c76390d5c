"""``CrowdSession.compare`` pinned over a grid of crowds and policies.

Single comparisons are what the sequential methods (heapsort, fullsort,
quickselect's pivots) buy through.  This suite
pins what a scripted chain of them buys across four oracles (a latent
Gaussian crowd, its binary votes, and the jester and imdb dataset
oracles), every estimator, six resilience policies and five
``(B, I, η)`` shapes, a few seeds each:

* per record: the outcome, workload, cost and rounds exactly, and the
  mean and std to a relative tolerance of 1e-9 (their sums may be
  grouped differently by an engine that replays the cache in blocks);
* digests of the session's judgment RNG state, of the fault RNG state,
  and of every cached bag's judgments;
* both ledgers, and every non-zero counter and non-timing histogram of
  the registry the chain ran under.

Each chain compares fresh pairs, repeats them in both orientations (cache
replays) and then re-compares two of them in a fork with twice the
budget, so a stored tie replays and buys on.  Every scenario passes its
``resilience=`` policy explicitly, so the ``CROWD_TOPK_FAULT_RATE`` leg
runs the same chains and must match too.

The expected values (``tests/golden/compare_parity.json``) are written by
``scripts/gen_golden.py compare_parity`` on a known-good tree; regenerate
only for a deliberate change of what a single comparison buys or bills,
and say why.  Tier-1 checks a fixed slice of the grid; the whole grid is
the ``statistical`` tier.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.config import ComparisonConfig, FaultPolicy, ResiliencePolicy, RetryPolicy
from repro.crowd.faults import FaultInjector
from repro.crowd.oracle import BinaryOracle, LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.datasets import load_dataset
from repro.telemetry import MetricsRegistry, use_registry

GOLDEN_PATH = Path(__file__).parent / "golden" / "compare_parity.json"

ORACLES = ("latent", "binary", "jester", "imdb")
ESTIMATORS = ("student", "stein", "hoeffding", "pac")
#: ``name -> (fault rates, retry policy)``; the fault RNG is seeded per
#: scenario.  ``timeouts`` drops so much that backoff waits run into the
#: deadline; ``retries`` degrades pairs after two empty rounds.
POLICIES = {
    "clean": ({}, RetryPolicy()),
    "deadline": ({}, RetryPolicy(deadline_rounds=4)),
    "faulty": (
        dict(timeout_rate=0.05, loss_rate=0.025, duplicate_rate=0.02,
             outage_rate=0.01),
        RetryPolicy(),
    ),
    "timeouts": (dict(timeout_rate=0.4), RetryPolicy(deadline_rounds=4)),
    "retries": (
        dict(loss_rate=0.5, outage_rate=0.1),
        RetryPolicy(max_attempts=2, backoff_base=0),
    ),
    "duplicates": (dict(duplicate_rate=0.3), RetryPolicy()),
}
#: ``(B, I, η)``: per-pair budget, cold start, batch size.
SHAPES = ((40, 2, 1), (100, 5, 10), (200, 10, 30), (90, 30, 7), (400, 20, 25))
SEEDS = 3

#: The chain, as indices into the scenario's six items: fresh pairs, then
#: repeats in both orientations.
CHAIN = ((1, 0), (2, 3), (0, 1), (4, 5), (3, 2), (5, 1), (1, 0))
#: Compared again by a fork with twice the budget.
EXTENDED = ((4, 5), (1, 0))

#: Every ``TIER1_STRIDE``-th scenario runs in tier 1.
TIER1_STRIDE = 15


def scenario_ids() -> list[str]:
    """Every grid scenario as ``oracle:estimator:policy:B-I-eta:seed``.

    The hoeffding estimator needs bounded judgments, so it skips the
    latent Gaussian crowd.
    """
    return [
        f"{oracle}:{estimator}:{policy}:{'-'.join(map(str, shape))}:{seed}"
        for oracle, estimator, policy, shape, seed in itertools.product(
            ORACLES, ESTIMATORS, POLICIES, SHAPES, range(SEEDS)
        )
        if not (estimator == "hoeffding" and oracle == "latent")
    ]


@functools.lru_cache(maxsize=None)
def _crowd(name: str) -> tuple:
    """``(oracle, item ids)`` for ``name``: six items, some of them close
    enough that pairs race long or tie."""
    if name in ("latent", "binary"):
        latent = LatentScoreOracle(
            np.asarray([0.0, 0.4, 0.9, 1.0, 2.5, 2.6]), GaussianNoise(1.5)
        )
        oracle = BinaryOracle(latent) if name == "binary" else latent
        return oracle, (0, 1, 2, 3, 4, 5)
    dataset = load_dataset(name)
    ranked = dataset.items.ids[np.argsort(dataset.items.scores, kind="stable")]
    ranks = (40, 42, 45, 50, 60, 41)
    return dataset.oracle, tuple(int(ranked[r]) for r in ranks)


def _config(estimator: str, policy: str, shape: tuple, seed: int) -> ComparisonConfig:
    rates, retry = POLICIES[policy]
    budget, cold_start, batch = shape
    return ComparisonConfig(
        confidence=0.95,
        budget=budget,
        min_workload=cold_start,
        batch_size=batch,
        estimator=estimator,
        resilience=ResiliencePolicy(
            fault=FaultPolicy(seed=seed, **rates), retry=retry
        ),
    )


def _rounded(value: float) -> float:
    """``value`` to 12 significant digits: well inside the 1e-9 tolerance."""
    return float(f"{value:.12g}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cache_digest(cache) -> str:
    """Every non-empty bag in pair order: its pair, size and judgment
    bytes.  Slot ids and empty slots are layout, not content: an engine
    may reserve a pair's slot before anything is delivered for it."""
    cache.settle()
    sha = hashlib.sha256()
    bags = sorted(
        (int(cache._lo[slot]), int(cache._hi[slot]), slot)
        for slot in range(cache._used)
        if cache._n[slot]
    )
    for lo, hi, slot in bags:
        n = int(cache._n[slot])
        start = int(cache._start[slot])
        sha.update(f"{lo}|{hi}|{n}|".encode())
        sha.update(cache._log[start : start + n].tobytes())
    return sha.hexdigest()[:16]


def _metrics(registry: MetricsRegistry) -> dict:
    """Non-zero counters and non-timing histograms' ``[count, sum]``."""
    def series(metric: dict) -> str:
        labels = ",".join(f"{k}={v}" for k, v in sorted(metric["labels"].items()))
        return metric["name"] + (f"{{{labels}}}" if labels else "")

    snap = registry.snapshot()
    found: dict = {
        series(counter): counter["value"]
        for counter in snap["counters"]
        if counter["value"]
    }
    for hist in snap["histograms"]:
        if not hist["name"].endswith("_seconds"):
            found[series(hist)] = [hist["count"], hist["sum"]]
    return found


def run_scenario(scenario: str) -> dict:
    """Run one scenario's chain; the values the golden pins."""
    oracle_name, estimator, policy, shape_text, seed_text = scenario.split(":")
    shape = tuple(int(part) for part in shape_text.split("-"))
    seed = int(seed_text)
    oracle, items = _crowd(oracle_name)
    with use_registry(MetricsRegistry()) as registry:
        session = CrowdSession(
            oracle, _config(estimator, policy, shape, seed), seed=seed
        )
        records = [session.compare(items[i], items[j]) for i, j in CHAIN]
        wide = session.fork(budget=2 * shape[0])
        records += [wide.compare(items[i], items[j]) for i, j in EXTENDED]
        injector = session.oracle if isinstance(session.oracle, FaultInjector) else None
        return {
            "records": [
                f"{r.left}|{r.right}|{r.outcome.name}|{r.workload}|{r.cost}|{r.rounds}"
                for r in records
            ],
            "means": [_rounded(r.mean) for r in records],
            "stds": [_rounded(r.std) for r in records],
            "rng": _digest(repr(session.rng.bit_generator.state)),
            "fault_rng": (
                _digest(repr(injector.fault_rng.bit_generator.state))
                if injector is not None
                else None
            ),
            "cache": _cache_digest(session.cache),
            "cost": [session.cost.microtasks, session.cost.comparisons],
            "rounds": session.latency.rounds,
            "metrics": _metrics(registry),
        }


def _close(expected: list, actual: list) -> bool:
    """Element-wise equal to a relative 1e-9; NaN matches only NaN."""
    return len(expected) == len(actual) and all(
        (math.isnan(a) and math.isnan(e))
        or (not math.isnan(a) and not math.isnan(e)
            and math.isclose(a, e, rel_tol=1e-9, abs_tol=1e-12))
        for e, a in zip(expected, actual)
    )


def scenario_diffs(scenario: str, expected: dict) -> list[str]:
    """How ``scenario`` now differs from its golden entry, field by field."""
    actual = run_scenario(scenario)
    diffs = []
    for field, want in expected.items():
        got = actual[field]
        same = _close(want, got) if field in ("means", "stds") else got == want
        if not same:
            diffs.append(f"{scenario}:{field} expected {want!r} got {got!r}")
    return diffs


def _golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "scripts/gen_golden.py compare_parity on a known-good tree"
        )
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def _check(scenarios: list[str]) -> None:
    golden = _golden()
    diffs: list[str] = []
    for scenario in scenarios:
        diffs.extend(scenario_diffs(scenario, golden[scenario]))
    assert not diffs, f"{len(diffs)} field diffs; first:\n" + "\n".join(diffs[:8])


def test_golden_covers_the_grid():
    assert sorted(_golden()) == sorted(scenario_ids())


def test_tier1_slice_matches_golden():
    _check(scenario_ids()[::TIER1_STRIDE])


@pytest.mark.statistical
@pytest.mark.parametrize("oracle", ORACLES)
def test_full_grid_matches_golden(oracle):
    _check([s for s in scenario_ids() if s.startswith(f"{oracle}:")])
