"""The shared cross-query cache: warm-hit identity, LRU eviction integrity."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.crowd.pool import RacingPool
from repro.persistence import cache_from_json, cache_to_json
from repro.service import (
    QueryService,
    QuerySpec,
    SharedJudgmentCache,
    run_query,
    session_for,
)
from repro.service.runner import execute_spec
from repro.telemetry import MetricsRegistry
from tests.conftest import make_latent_session
from tests.test_pool import scratch_replay

SPEC_A = QuerySpec(
    method="spr", k=3, dataset="synthetic", n_items=12, seed=3, tenant="acme"
)
SPEC_B = SPEC_A.with_(seed=9)  # same working set, different draws


def _never(n, s1, s2, stage_var, reach):
    """A replay rule that never decides."""
    return np.zeros(n.shape, dtype=np.int8)


def shared(registry=None, **kwargs) -> SharedJudgmentCache:
    return SharedJudgmentCache(
        registry=registry or MetricsRegistry(), **kwargs
    )


class TestTenantNamespaces:
    def test_tenants_never_see_each_other(self):
        cache = shared()
        cache.tenant("a").append(1, 2, np.array([1.0, -1.0]))
        assert cache.tenant("b").count(1, 2) == 0
        assert cache.tenant("a").count(1, 2) == 2
        assert cache.tenants() == ["a", "b"]

    def test_tenant_handle_is_stable(self):
        cache = shared()
        assert cache.tenant("a") is cache.tenant("a")

    def test_counters_attribute_to_the_reading_tenant(self):
        registry = MetricsRegistry()
        cache = shared(registry)
        cache.tenant("a").append(1, 2, np.array([1.0]))
        cache.tenant("a").bag(1, 2)   # hit
        cache.tenant("b").bag(1, 2)   # miss (different namespace)
        assert registry.counter_total("service_cache_hits_total") == 1
        assert registry.counter_total("service_cache_misses_total") == 1
        stats = cache.stats()["tenants"]
        assert stats["a"]["hits"] == 1
        assert stats["b"]["misses"] == 1


class TestDeferredReads:
    def test_bulk_reads_see_deferred_rows_of_new_pairs(self):
        namespace = shared().tenant("a")
        lefts = np.array([5, 9], dtype=np.int64)
        rights = np.array([7, 8], dtype=np.int64)
        namespace.defer_rows(
            lefts, rights, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([2, 1])
        )
        found = namespace.replay(lefts, rights, 10, "never", _never)
        assert found.n.tolist() == [2, 1]
        assert found.s1.tolist() == [3.0, 3.0]
        assert [bag.tolist() for bag in namespace.bags_for(rights, lefts)] == [
            [-1.0, -2.0],
            [-3.0],
        ]
        assert namespace.hits == 4

    def test_an_unknown_pair_misses_when_the_slot_arrays_are_full(self):
        # 64 pairs fill the per-slot arrays exactly, so the -1 of an
        # unknown pair would index a real slot if it reached them.
        namespace = shared().tenant("a")
        for n in range(64):
            namespace.append(n, n + 1000, np.ones(2))
        found = namespace.replay(
            np.array([5000]), np.array([5001]), 10, "never", _never
        )
        assert found is None
        assert (namespace.hits, namespace.misses) == (0, 1)


class TestDatasetNamespaces:
    @pytest.mark.faultfree  # compares exact costs and answers
    def test_a_tenants_datasets_never_share_judgments(self):
        # Item ids are per dataset: jester's pair (3, 7) is not imdb's.
        # Judgments bought by a jester query must not answer an imdb
        # query of the same tenant, so the imdb query runs as if cold.
        jester = QuerySpec(
            method="tournament", k=3, dataset="jester", n_items=30, seed=5,
            tenant="acme",
        )
        imdb = QuerySpec(
            method="spr", k=3, dataset="imdb", n_items=30, seed=6,
            tenant="acme",
        )
        cold = run_query(imdb, MetricsRegistry())
        with QueryService(max_workers=1, registry=MetricsRegistry()) as service:
            service.submit(jester).result(timeout=120)
            warm = service.submit(imdb).result(timeout=120)
        assert list(warm.topk) == list(cold.topk)
        assert (warm.cost, warm.rounds) == (cold.cost, cold.rounds)
        assert service.cache.tenants() == ["acme"]
        counts = [
            service.cache.tenant("acme", dataset).pair_count
            for dataset in ("jester", "imdb")
        ]
        assert all(counts)
        # The per-tenant figures sum over the tenant's namespaces.
        assert service.cache.stats()["tenants"]["acme"]["pairs"] == sum(counts)


class TestWarmHitIdentity:
    """A warm service query == a standalone run with the same pre-seeded cache."""

    @pytest.mark.faultfree  # pins exact verdicts of seeded traces
    def test_cross_query_hits_are_bit_identical_to_a_preseeded_cold_run(self):
        # 1. Cold standalone run of A: its judgments are the future cache.
        registry = MetricsRegistry()
        session_a, items_a = session_for(SPEC_A, registry)
        execute_spec(session_a, SPEC_A, items_a)
        judgments = cache_to_json(session_a.cache)

        # 2. Standalone run of B over a *copy* of A's judgments: the
        #    expected warm verdicts.
        session_b, items_b = session_for(SPEC_B, registry)
        session_b.use_cache(cache_from_json(judgments))
        expected = execute_spec(session_b, SPEC_B, items_b)
        expected_purchases = session_b.total_cost

        # 3. The service runs A then B on the same tenant (one worker =
        #    strictly sequential), so B starts on exactly A's judgments.
        with QueryService(max_workers=1, registry=MetricsRegistry()) as service:
            service.submit(SPEC_A).result(timeout=120)
            handle = service.submit(SPEC_B)
            warm = handle.result(timeout=120)

        assert list(warm.topk) == list(expected.topk)
        assert warm.rounds == expected.rounds
        assert warm.cost == expected_purchases
        hits = service.cache.stats()["tenants"]["acme"]["hits"]
        assert hits > 0

    @pytest.mark.faultfree
    def test_identical_warm_query_repurchases_nothing(self):
        with QueryService(max_workers=1, registry=MetricsRegistry()) as service:
            first = service.submit(SPEC_A).result(timeout=120)
            again = service.submit(SPEC_A).result(timeout=120)
        assert list(again.topk) == list(first.topk)
        assert again.cost == 0  # every comparison answered from the cache


class TestLruEviction:
    def _fill(self, cache, tenant, pairs, width=4):
        namespace = cache.tenant(tenant)
        for n in range(pairs):
            namespace.append(n, n + 1000, np.ones(width))
        return namespace

    def test_entry_bound_evicts_least_recently_used(self):
        cache = shared(max_entries=3)
        namespace = self._fill(cache, "a", 3)
        namespace.bag(0, 1000)  # refresh pair 0: pair 1 is now the LRU
        namespace.append(50, 1050, np.ones(4))
        assert cache.entries == 3
        assert namespace.count(1, 1001) == 0   # evicted
        assert namespace.count(0, 1000) == 4   # refreshed, retained
        assert cache.stats()["tenants"]["a"]["evictions"] == 1

    def test_byte_bound_holds(self):
        cache = shared(max_bytes=2_000)
        self._fill(cache, "a", 40, width=8)
        assert cache.bytes <= 2_000
        assert cache.entries < 40

    def test_eviction_crosses_tenants_by_recency(self):
        cache = shared(max_entries=2)
        self._fill(cache, "old", 2)
        self._fill(cache, "new", 2)
        assert cache.entries == 2
        assert cache.tenant("old").pair_count == 0
        assert cache.tenant("new").pair_count == 2

    def test_eviction_never_corrupts_in_flight_moments(self):
        """Dropping a bag must neither tear surviving moments nor
        invalidate numpy views handed out before the eviction."""
        cache = shared(max_entries=4)
        namespace = self._fill(cache, "a", 4, width=6)
        held_views = {
            (n, n + 1000): namespace.bag(n, n + 1000) for n in range(4)
        }
        frozen = {key: view.copy() for key, view in held_views.items()}
        # Blow well past the bound; everything originally cached evicts.
        self._fill(cache, "a", 12)
        for key, view in held_views.items():
            np.testing.assert_array_equal(view, frozen[key])
        # Surviving bags' running moments agree with a recomputation from
        # the raw judgments, and the totals reconcile.
        total = 0
        for i, j in namespace.pairs():
            values = namespace.bag(i, j)
            n, mean, var = namespace.moments(i, j)
            assert n == values.size
            assert mean == pytest.approx(float(values.mean()))
            if n > 1:
                assert var == pytest.approx(float(values.var(ddof=1)))
            total += values.size
        assert namespace.total_samples == total
        assert cache.entries <= 4

    @pytest.mark.faultfree  # compares exact draws with a reference run
    def test_evicting_a_slot_mid_race_starts_a_fresh_bag(self):
        """A racing pool resolves its cache slots once.  When the LRU
        evicts one of them mid-race, the pool's later rounds start a fresh
        bag in that slot, and its verdicts are those of a run whose cache
        was never evicted."""
        scores = [0.0, 0.05, 1.0, 1.05]  # close pairs: many rounds each
        pairs = [(0, 1), (3, 2)]
        reference = make_latent_session(scores, seed=4)
        expected = RacingPool(reference, pairs).run_to_completion()

        cache = shared(max_entries=2)
        namespace = cache.tenant("a")
        session = make_latent_session(scores, seed=4)
        session.use_cache(namespace)
        pool = RacingPool(session, pairs)
        resolved = list(pool.initial_decisions)
        for _ in range(3):
            resolved.extend(pool.round())
        # Two writes elsewhere push both raced pairs out of the LRU (the
        # first write drains and accounts the pool's rounds).
        namespace.append(10, 11, np.ones(3))
        namespace.append(12, 13, np.ones(3))
        assert namespace.count(0, 1) == namespace.count(2, 3) == 0
        assert cache.stats()["tenants"]["a"]["evictions"] == 2
        consumed_before = pool.n.copy()
        while not pool.is_done:
            resolved.extend(pool.round())

        assert resolved == expected
        for (i, j), before in zip(pairs, consumed_before.tolist()):
            fresh = namespace.bag(i, j)
            assert fresh.size > 0
            assert fresh.tobytes() == reference.cache.bag(i, j)[before:].tobytes()
            n, mean, _ = namespace.moments(i, j)
            assert n == fresh.size
            assert mean == pytest.approx(float(fresh.mean()))
        assert namespace.total_samples == sum(
            namespace.count(i, j) for i, j in namespace.pairs()
        )

    @pytest.mark.faultfree  # compares exact draws with a reference run
    def test_reused_slot_ids_mid_race_keep_each_write_in_its_bag(self):
        """Once evictions leave more empty slots than live ones, the
        namespace frees them and hands their ids to new pairs, so the ids
        a racing pool resolved at construction may name other pairs.  The
        cache checks each id against its pair, so the pool's later rounds
        still land in the raced pairs' bags."""
        scores = [0.0, 0.05, 1.0, 1.05]
        pairs = [(0, 1), (3, 2)]
        reference = make_latent_session(scores, seed=4)
        expected = RacingPool(reference, pairs).run_to_completion()

        cache = shared(max_entries=2)
        namespace = cache.tenant("a")
        session = make_latent_session(scores, seed=4)
        session.use_cache(namespace)
        pool = RacingPool(session, pairs)
        resolved = list(pool.initial_decisions)
        for _ in range(3):
            resolved.extend(pool.round())
        for n in (10, 12, 14, 16):
            namespace.append(n, n + 1, np.ones(3))
        # The third write left two live slots of five, so the three empty
        # ones were freed; the fourth write took the lowest, one of the
        # pool's.
        assert namespace._slot_of[(16, 17)] in pool._slots.tolist()
        assert (0, 1) not in namespace._slot_of
        consumed_before = pool.n.copy()
        while not pool.is_done:
            resolved.extend(pool.round())

        assert resolved == expected
        for (i, j), before in zip(pairs, consumed_before.tolist()):
            fresh = namespace.bag(i, j)
            assert fresh.tobytes() == reference.cache.bag(i, j)[before:].tobytes()
            assert namespace.moments(i, j)[0] == fresh.size > 0
        assert namespace.total_samples == sum(
            namespace.count(i, j) for i, j in namespace.pairs()
        )

    def test_slot_table_follows_the_cached_pairs(self):
        """Racing pools resolve a slot for every pair they race, written
        or not.  Evictions free the empty slots once they outnumber the
        live ones, and new pairs reuse the freed ids, so a long-lived
        namespace keeps slots for about what it caches, not for every
        pair it ever raced."""
        cache = shared(max_entries=8)
        namespace = cache.tenant("a")
        for n in range(200):
            lefts = np.arange(10, dtype=np.int64) + 100 * n
            namespace.slot_ids(lefts, lefts + 50)  # one pool's ten pairs
            namespace.append(100 * n, 100 * n + 50, np.ones(2))
            if n >= 8:  # evicting from here on
                assert len(namespace._slot_of) <= 2 * 8
        # The first eight pools' 80 pairs came before any eviction; after
        # that new pairs reuse freed ids (2,000 pairs were resolved).
        assert namespace._used <= 80 + 10
        assert cache.entries == 8
        assert namespace.pairs() == [
            (100 * n, 100 * n + 50) for n in range(192, 200)
        ]

    def test_bounded_service_still_answers_correctly(self):
        # With a pathologically small cache the service repurchases
        # evidence instead of corrupting it: queries complete and respect
        # their ceilings, and the eviction counters record the churn.
        registry = MetricsRegistry()
        with QueryService(
            max_workers=2, cache_entries=8, registry=registry
        ) as service:
            handles = [
                service.submit(SPEC_A.with_(seed=n, cost_sla=500_000))
                for n in range(4)
            ]
            outcomes = [handle.result(timeout=300) for handle in handles]
        assert all(len(outcome.topk) == 3 for outcome in outcomes)
        assert service.cache.entries <= 8
        assert registry.counter_total("service_cache_evictions_total") > 0

    def test_gauges_track_the_lru(self):
        registry = MetricsRegistry()
        cache = shared(registry, max_entries=2)
        self._fill(cache, "a", 5)
        assert cache.entries == 2
        assert cache.bytes == sum(cache._lru.values())
        assert registry.gauge("service_cache_entries").value == 2
        assert registry.gauge("service_cache_bytes").value == cache.bytes


class TestConcurrentReplay:
    def test_frontiers_describe_their_bags_after_concurrent_queries(self):
        # Six query threads race overlapping pairs on one namespace bound
        # tight enough to evict and recycle slots, with the interpreter
        # switching threads as often as it can.  A frontier scanned from
        # a bag that another thread emptied before the write-back would
        # leave a replay that differs from a scan from the first judgment.
        namespace = shared(max_entries=30).tenant("t")
        pairs = [(i, j) for i in range(12) for j in range(12) if i != j]
        scores = np.linspace(0.0, 1.5, 12)

        def session(seed: int):
            budget = (60, 1000)[seed % 2]
            racer = make_latent_session(
                scores, sigma=2.0, seed=seed, budget=budget, min_workload=5
            )
            racer.use_cache(namespace)
            return racer

        def query(seed: int) -> None:
            racer = session(seed)
            rng = np.random.default_rng(seed)
            for _ in range(25):
                picks = rng.choice(len(pairs), size=6, replace=False)
                pool = RacingPool(racer, [pairs[p] for p in picks])
                for _ in range(2):
                    pool.round()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=query, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert namespace.evictions > 0 and namespace._recycled

        for seed in (0, 1):  # both budgets
            reader = session(seed)
            want = scratch_replay(reader, pairs)
            pool = RacingPool(reader, pairs)
            assert pool.n.tolist() == want["n"].tolist()
            for name in ("s1", "s2"):
                got = getattr(pool, name).view(np.uint64).tolist()
                assert got == want[name].view(np.uint64).tolist(), name
            assert pool.status.tolist() == want["status"].tolist()
            assert pool.initial_decisions == want["initial"]
