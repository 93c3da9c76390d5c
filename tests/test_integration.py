"""End-to-end integration: full pipeline over every dataset + invariants
tying algorithms, sessions, caches and metrics together."""

import pytest

from repro import (
    ComparisonConfig,
    SPRConfig,
    load_dataset,
    ndcg_at_k,
    spr_topk,
    top_k_recall,
)
from repro.algorithms import (
    heapsort_topk,
    quickselect_topk,
    spr_adapter,
    tournament_topk,
)

FAST = ComparisonConfig(confidence=0.95, budget=300, min_workload=10, batch_size=10)

DATASET_SETTINGS = {
    "imdb": dict(n_items=60, min_votes=5_000, max_votes=20_000),
    "book": dict(n_items=50),
    "jester": dict(n_items=40, n_users=1_000),
    "photo": dict(n_items=30),
    "peopleage": dict(n_items=40),
}


@pytest.mark.parametrize("name", sorted(DATASET_SETTINGS))
def test_spr_end_to_end_on_every_dataset(name):
    dataset = load_dataset(name, seed=2, **DATASET_SETTINGS[name])
    session = dataset.session(FAST, seed=5)
    result = spr_topk(session, dataset.items.ids.tolist(), 5)
    assert len(result.topk) == 5
    assert len(set(result.topk)) == 5
    assert session.total_cost == result.cost > 0
    # Quality: clearly better than a random answer.  Photo is bounded by
    # its small per-pair record pools (a comparison converges to the
    # empirical record mean, which can disagree with the latent order), so
    # its bar sits lower — the same effect the real dataset exhibits.
    floor = 0.4 if name == "photo" else 0.7
    assert ndcg_at_k(dataset.items, result.topk, 5) > floor


def test_all_methods_agree_on_easy_query():
    dataset = load_dataset("jester", seed=2, **DATASET_SETTINGS["jester"])
    ids = dataset.items.ids.tolist()
    recalls = {}
    for name, algorithm in [
        ("spr", spr_adapter),
        ("tournament", tournament_topk),
        ("heapsort", heapsort_topk),
        ("quickselect", quickselect_topk),
    ]:
        session = dataset.session(FAST, seed=8)
        outcome = algorithm(session, ids, 3)
        recalls[name] = top_k_recall(dataset.items, outcome.topk, 3)
    assert all(recall >= 2 / 3 for recall in recalls.values()), recalls


def test_spr_run_is_fully_reproducible():
    dataset = load_dataset("photo", seed=2, **DATASET_SETTINGS["photo"])
    runs = []
    for _ in range(2):
        session = dataset.session(FAST, seed=77)
        result = spr_topk(session, dataset.items.ids.tolist(), 4)
        runs.append((result.topk, result.cost, result.rounds))
    assert runs[0] == runs[1]


def test_session_bill_equals_cache_plus_uncached_spending():
    # Every cached sample was bought exactly once: with a cache-backed run
    # the cache size equals the total bill.
    dataset = load_dataset("jester", seed=2, **DATASET_SETTINGS["jester"])
    session = dataset.session(FAST, seed=3)
    spr_topk(session, dataset.items.ids.tolist(), 4)
    assert session.cache.total_samples == session.total_cost


def test_confidence_knob_monotone_in_cost():
    dataset = load_dataset("jester", seed=2, **DATASET_SETTINGS["jester"])
    ids = dataset.items.ids.tolist()
    costs = []
    for confidence in (0.8, 0.98):
        config = FAST.with_(confidence=confidence)
        session = dataset.session(config, seed=4)
        result = spr_topk(session, ids, 4, SPRConfig(comparison=config))
        costs.append(result.cost)
    assert costs[0] < costs[1]


def test_budget_knob_bounds_tie_spending():
    dataset = load_dataset("photo", seed=2, **DATASET_SETTINGS["photo"])
    ids = dataset.items.ids.tolist()
    costs = []
    for budget in (50, 300):
        config = FAST.with_(budget=budget)
        session = dataset.session(config, seed=4)
        result = spr_topk(session, ids, 4, SPRConfig(comparison=config))
        costs.append(result.cost)
    assert costs[0] < costs[1]


def test_public_api_quickstart_snippet():
    # The README quickstart must keep working verbatim.
    from repro import load_dataset, spr_topk, ndcg_at_k

    dataset = load_dataset("jester", seed=2, **DATASET_SETTINGS["jester"])
    session = dataset.session(seed=0)
    result = spr_topk(session, dataset.items.ids.tolist(), k=10)
    assert len(result.topk) == 10
    assert 0.0 <= ndcg_at_k(dataset.items, result.topk, 10) <= 1.0
