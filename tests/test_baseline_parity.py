"""Bit-for-bit parity of the paper's baselines across refactors.

``tests/test_dataset_parity.py`` pins SPR, BDP and the tournament on the
dataset oracles; this suite pins the other baselines of Table 7 —
``pbr``, ``heapsort``, ``quickselect`` and ``fullsort`` — on small imdb
(``HistogramOracle``) and jester (``UserTableOracle``) working sets: the
top-k, cost, rounds, every counter with its labels, every non-timing
histogram's count and sum, and a digest of the settled judgment cache.

The expected digests (``tests/golden/baseline_parity.json``) were
generated by ``scripts/gen_golden.py baseline_parity`` on a tree whose
behaviour is known-good.  Tier 1 runs each method and dataset at its
first seed; ``-m statistical`` runs every seed.  Regenerating is only
legitimate when a change moves what the baselines buy on purpose and
says why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import QuerySpec, runner
from repro.telemetry import MetricsRegistry, use_registry
from tests.test_dataset_parity import cache_digest, metric_digest

pytestmark = pytest.mark.faultfree  # digests pin fault-free traces

GOLDEN_PATH = Path(__file__).parent / "golden" / "baseline_parity.json"

METHODS = ("pbr", "heapsort", "quickselect", "fullsort")

#: ``dataset -> (n_items, seeds)``, with ``k = K`` throughout.
DATASETS = {
    "imdb": (40, range(500_000, 500_003)),
    "jester": (30, range(600_000, 600_003)),
}
K = 5


def run_case(method: str, dataset: str, seed: int) -> dict:
    """One seeded baseline query; its full parity digest."""
    n_items, _ = DATASETS[dataset]
    spec = QuerySpec(method=method, k=K, dataset=dataset, n_items=n_items, seed=seed)
    with use_registry(MetricsRegistry()) as registry:
        session, items = runner.session_for(spec, registry)
        outcome = runner.execute_spec(session, spec, items)
        return {
            "topk": [int(i) for i in outcome.topk],
            "cost": int(session.total_cost),
            "rounds": int(session.total_rounds),
            "cache": cache_digest(session.cache),
            "metrics": metric_digest(registry),
        }


def case_ids() -> list[tuple[str, str, int]]:
    return [
        (method, dataset, seed)
        for method in METHODS
        for dataset, (_, seeds) in DATASETS.items()
        for seed in seeds
    ]


def _key(method: str, dataset: str, seed: int) -> str:
    return f"{method}:{dataset}:{seed}"


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "scripts/gen_golden.py baseline_parity on a known-good tree"
        )
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def _check(cases, golden) -> None:
    diffs = []
    for case in cases:
        expected = golden[_key(*case)]
        actual = run_case(*case)
        diffs.extend(
            f"{_key(*case)}:{field} expected {expected[field]!r} got {actual[field]!r}"
            for field in expected
            if actual[field] != expected[field]
        )
    assert not diffs, "\n".join(diffs[:10])


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in case_ids())


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("method", METHODS)
def test_first_seed_matches_golden(method, dataset, golden):
    _check([(method, dataset, DATASETS[dataset][1][0])], golden)


@pytest.mark.statistical
@pytest.mark.parametrize("method", METHODS)
def test_every_seed_matches_golden(method, golden):
    _check([case for case in case_ids() if case[0] == method], golden)
