"""Bit-for-bit parity of the benchmark's real oracles across refactors.

``tests/test_apply_parity.py`` pins the racing path on synthetic
latent-score oracles.  The end-to-end benchmark draws from the dataset
oracles instead — ``HistogramOracle`` (imdb) and ``UserTableOracle``
(jester) — so this suite pins what queries over those datasets buy: the
top-k, cost, rounds, every counter with its labels, every non-timing
histogram's count and sum, and a digest of the settled judgment cache
(each slot's pair, its bag size, the bits of its running moments and
its values).

The expected digests (``tests/golden/dataset_parity.json``) were
generated by ``scripts/gen_golden.py dataset_parity`` on a tree whose
behaviour is known-good.  A change that moves any of them changes what
the crowd is asked or what is recorded; regenerating is only legitimate
when a PR changes semantics on purpose and says why.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.service import QuerySpec, runner
from repro.telemetry import MetricsRegistry, use_registry

pytestmark = pytest.mark.faultfree  # digests pin fault-free traces

GOLDEN_PATH = Path(__file__).parent / "golden" / "dataset_parity.json"

#: ``name -> (method, k, dataset, n_items, seeds)``.  The first two are
#: the ``spr_imdb`` and ``bdp_jester`` benchmark queries themselves.
CASES = {
    "spr_imdb": ("spr", 10, "imdb", None, range(100_000, 100_002)),
    "bdp_jester": ("bdp", 3, "jester", 10, range(200_000, 200_010)),
    "spr_imdb_200": ("spr", 10, "imdb", 200, range(300_000, 300_002)),
    "tournament_jester_200": ("tournament", 10, "jester", 200, range(400_000, 400_002)),
}


def _bits(value: float) -> str:
    return "nan" if math.isnan(value) else float(value).hex()


def cache_digest(cache) -> str:
    """sha256 over every slot in id order: pair, size, moment bits, values."""
    cache.settle()
    sha = hashlib.sha256()
    for slot in range(cache._used):
        n = int(cache._n[slot])
        start = int(cache._start[slot])
        sha.update(
            f"{slot}|{int(cache._lo[slot])}|{int(cache._hi[slot])}|{n}|"
            f"{_bits(cache._s1[slot])}|{_bits(cache._s2[slot])}|".encode()
        )
        sha.update(cache._log[start : start + n].tobytes())
    return sha.hexdigest()


def metric_digest(registry: MetricsRegistry) -> dict:
    """Every counter by name and labels; histograms as (count, sum bits)."""
    snap = registry.snapshot()
    out = {
        f"{c['name']}|{json.dumps(c['labels'], sort_keys=True)}": c["value"]
        for c in snap["counters"]
    }
    for h in snap["histograms"]:
        if h["name"].endswith("_seconds"):  # wall clock: not deterministic
            continue
        key = f"hist:{h['name']}|{json.dumps(h['labels'], sort_keys=True)}"
        out[key] = [h["count"], _bits(h["sum"])]
    return out


def run_case(name: str, seed: int) -> dict:
    """One seeded query of case ``name``; its full parity digest."""
    method, k, dataset, n_items, _ = CASES[name]
    spec = QuerySpec(method=method, k=k, dataset=dataset, n_items=n_items, seed=seed)
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


def case_ids() -> list[tuple[str, int]]:
    return [(name, seed) for name, case in CASES.items() for seed in case[4]]


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "scripts/gen_golden.py dataset_parity on a known-good tree"
        )
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_queries_match_golden(name, golden):
    diffs = []
    for case, seed in case_ids():
        if case != name:
            continue
        expected = golden[f"{name}:{seed}"]
        actual = run_case(name, seed)
        diffs.extend(
            f"{name}:{seed}:{field} expected {expected[field]!r} got {actual[field]!r}"
            for field in expected
            if actual[field] != expected[field]
        )
    assert not diffs, "\n".join(diffs[:10])


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{name}:{seed}" for name, seed in case_ids())
