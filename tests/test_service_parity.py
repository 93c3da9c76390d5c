"""Bit-for-bit parity of the service door's cross-query cache reuse.

A tenant's namespace of the shared judgment cache outlives its queries:
every query replays the bags earlier queries stored before it buys new
microtasks (§5.3).  This suite pins what a fixed two-tenant sequence
buys through an in-process :class:`~repro.service.QueryService` with one
worker: ``spr`` and ``tournament`` alternate, each seed asked cold and
then warm, tenant ``a`` on jester and tenant ``b`` on imdb.  For each
query it pins the top-k, cost and rounds; for each tenant its cache
hits, misses and evictions and a digest of every slot of its namespace
(pair, bag size, moment bits and values); and the total of
``crowd_cache_hits_total``, the pairs decided by replay alone.

The sequence runs twice: once with an unbounded cache, and once bounded
to a few hundred entries, so that evictions, log compaction and slot
recycling fall between the replays.

The expected digests (``tests/golden/service_parity.json``) were
generated by ``scripts/gen_golden.py service_parity`` on a tree whose
behaviour is known-good.  Regenerating is only legitimate when a change
alters what queries buy on purpose and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import QueryService, QuerySpec
from repro.telemetry import MetricsRegistry
from tests.test_dataset_parity import cache_digest

pytestmark = pytest.mark.faultfree  # digests pin fault-free traces

GOLDEN_PATH = Path(__file__).parent / "golden" / "service_parity.json"

#: tenant -> (dataset, n_items, first seed)
TENANTS = {"a": ("jester", 60, 500_000), "b": ("imdb", 80, 600_000)}
#: Fresh seeds per tenant; each is asked twice (cold, then warm).
FRESH_SEEDS = 6
K = 5
#: ``name -> cache_entries``: unbounded, and small enough to evict.
RUNS = {"unbounded": None, "bounded": 300}


def sequence() -> list[QuerySpec]:
    """The submission order: the tenants interleave, each spec twice."""
    specs = []
    for position in range(FRESH_SEEDS):
        for tenant, (dataset, n_items, first_seed) in TENANTS.items():
            spec = QuerySpec(
                method=("spr", "tournament")[position % 2], k=K,
                dataset=dataset, n_items=n_items, seed=first_seed + position,
                tenant=tenant,
            )
            specs += [spec, spec]
    return specs


def run_sequence(cache_entries: int | None) -> dict:
    """The whole sequence through a one-worker service; its digest."""
    registry = MetricsRegistry()
    queries = []
    with QueryService(
        max_workers=1, cache_entries=cache_entries, registry=registry
    ) as service:
        for spec in sequence():
            outcome = service.submit(spec).result(timeout=300)
            queries.append(
                {
                    "tenant": spec.tenant,
                    "seed": spec.seed,
                    "topk": [int(i) for i in outcome.topk],
                    "cost": int(outcome.cost),
                    "rounds": int(outcome.rounds),
                }
            )
        stats = service.cache.stats()["tenants"]
        tenants = {}
        for tenant, (dataset, _, _) in TENANTS.items():
            namespace = service.cache.tenant(tenant, dataset)
            tenants[tenant] = {
                "hits": stats[tenant]["hits"],
                "misses": stats[tenant]["misses"],
                "evictions": stats[tenant]["evictions"],
                "recycled": namespace._recycled,
                "cache": cache_digest(namespace),
            }
    return {
        "queries": queries,
        "tenants": tenants,
        "crowd_cache_hits_total": registry.counter_total("crowd_cache_hits_total"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "scripts/gen_golden.py service_parity on a known-good tree"
        )
    return json.loads(GOLDEN_PATH.read_text())["runs"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_sequence_matches_golden(name, golden):
    expected = golden[name]
    actual = run_sequence(RUNS[name])
    diffs = [
        f"{name}:query {position} ({want['tenant']} seed {want['seed']}): "
        f"expected {want} got {got}"
        for position, (want, got) in enumerate(
            zip(expected["queries"], actual["queries"])
        )
        if want != got
    ]
    diffs += [
        f"{name}:{field} expected {expected[field]!r} got {actual[field]!r}"
        for field in ("tenants", "crowd_cache_hits_total")
        if actual[field] != expected[field]
    ]
    assert len(actual["queries"]) == len(expected["queries"])
    assert not diffs, "\n".join(diffs[:10])


def test_bounded_run_evicts_and_recycles_slots(golden):
    # The bounded run is there to put evictions and slot recycling
    # between replays; a bound too loose to cause them pins nothing.
    for tenant in golden["bounded"]["tenants"].values():
        assert tenant["evictions"] > 0
        assert tenant["recycled"]


def test_warm_queries_reuse_judgments(golden):
    for run in golden.values():
        assert run["crowd_cache_hits_total"] > 0
        for tenant in run["tenants"].values():
            assert tenant["hits"] > 0
