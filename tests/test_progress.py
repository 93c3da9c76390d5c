"""Live query progress: what ``CrowdSession.progress()`` reports, round by round.

The observatory's ``/queries`` rows are ``progress()`` documents.  These
tests read one at every round boundary of a fixed-seed query (the points
where the loops offer a checkpoint) and pin the algorithm sections: the
SPR partition loop's ``partition`` and the BDP loop's ``bdp``.  They also
check that each session reports its own degraded ties and checkpoints,
that derived fields are left to the reader, that scrapes under load
never see an error, and that a finished query's session is freed
without the cycle collector.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
import urllib.request
import weakref
from functools import partial

import numpy as np
import pytest

from repro.algorithms.bdp import bdp_topk
from repro.config import ComparisonConfig, ResiliencePolicy, RetryPolicy
from repro.core.spr import spr_topk
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.service import QueryService, QuerySpec
from repro.telemetry import MetricsRegistry, ObservatoryServer, use_registry
from repro.telemetry.sinks import _jsonable

BASE_KEYS = [
    "budget_cap",
    "budget_remaining",
    "checkpoints",
    "comparisons",
    "cost",
    "degraded_ties",
    "open_spans",
    "phase",
    "rounds",
]


def fixed_session(n: int, seed: int, sigma: float) -> CrowdSession:
    # Explicit zero-fault policy: the pinned values must not move when
    # the CI fault leg exports CROWD_TOPK_FAULT_RATE.
    scores = np.random.default_rng(seed).normal(size=n) * 3.0
    config = ComparisonConfig(
        confidence=0.95, budget=200, min_workload=2, batch_size=10,
        resilience=ResiliencePolicy(),
    )
    return CrowdSession(
        LatentScoreOracle(scores, GaussianNoise(sigma)), config, seed=seed
    )


def progress_at_round_boundaries(monkeypatch, session) -> list[dict]:
    """Every ``progress()`` document read where the loop offers a checkpoint."""
    seen = []

    def read_progress() -> bool:
        seen.append(session.progress())
        return False

    monkeypatch.setattr(session, "maybe_checkpoint", read_progress)
    return seen


# (reference, reference_changes, winners, ties, losers,
#  pool: pairs, active, decided, ties, rounds_done, est_rounds_remaining,
#  consumed_microtasks) at each partition round boundary.
SPR_PARTITION = [
    (10, 0, 0, 0, 2, 39, 37, 2, 0, 0, 20, 13),
    (10, 0, 10, 0, 21, 39, 8, 31, 0, 1, 19, 206),
    (32, 1, 9, 0, 23, 8, 7, 1, 0, 0, 20, 7),
    (25, 2, 8, 0, 24, 7, 7, 0, 0, 0, 20, 0),
    (25, 2, 8, 0, 28, 7, 3, 4, 0, 1, 19, 46),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 2, 18, 69),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 3, 17, 89),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 4, 16, 109),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 5, 15, 129),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 6, 14, 149),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 7, 13, 169),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 8, 12, 189),
    (25, 2, 8, 0, 29, 7, 2, 5, 0, 9, 11, 209),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 10, 10, 220),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 11, 9, 230),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 12, 8, 240),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 13, 7, 250),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 14, 6, 260),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 15, 5, 270),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 16, 4, 280),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 17, 3, 290),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 18, 2, 300),
    (25, 2, 9, 0, 29, 7, 1, 6, 0, 19, 1, 310),
    (25, 2, 9, 1, 29, 7, 0, 6, 1, 20, 0, 320),
]

# The BDP loop's posterior ranking loss after each of its 45 purchases
# (one pair per round, no ties).
BDP_LOSS = [
    20.412697267501983, 18.81299430911567, 17.70089112484106,
    16.451486099779313, 16.22579457660521, 16.08559962867625,
    15.835226144625032, 15.031674835628442, 14.414240738397327,
    13.956098564406037, 13.644237765198746, 13.066567486509928,
    12.70471125738582, 12.55104462709037, 12.04518944509077,
    12.14624940460558, 11.54464830755918, 11.196192664189802,
    10.745947164196723, 10.371549026540237, 9.968059425310106,
    9.639643925098461, 9.417397124050972, 9.150080981067482,
    8.909314316468, 8.636628983856685, 8.447854014783225,
    8.173692735608887, 7.9557092173845145, 7.817303554042252,
    7.70342473193081, 7.497948321174503, 7.2266946829059995,
    7.129823114027919, 7.069592366658714, 6.957422406770336,
    6.620150642482457, 6.567733360728663, 6.406695490326974,
    6.160175709089928, 6.155632774048774, 5.958225427877259,
    5.813120661633209, 5.732697586038889, 5.561453326357739,
]


class TestSectionsAtRoundBoundaries:
    def test_spr_partition_section(self, monkeypatch):
        session = fixed_session(40, seed=3, sigma=2.0)
        seen = progress_at_round_boundaries(monkeypatch, session)
        spr_topk(session, list(range(40)), 5)

        assert len(seen) == len(SPR_PARTITION)
        rows = []
        for doc in seen:
            assert sorted(doc) == sorted(BASE_KEYS + ["partition"])
            section = doc["partition"]
            assert list(section) == [
                "reference", "reference_changes", "winners", "ties",
                "losers", "pool",
            ]
            pool = section["pool"]
            assert list(pool) == [
                "pairs", "active", "decided", "ties", "rounds_done",
                "est_rounds_remaining", "consumed_microtasks",
            ]
            rows.append(
                tuple(section[key] for key in list(section)[:5])
                + tuple(pool.values())
            )
        assert rows == SPR_PARTITION
        assert all(doc["phase"] == "spr.partition" for doc in seen)

    def test_bdp_section(self, monkeypatch):
        session = fixed_session(10, seed=5, sigma=0.8)
        seen = progress_at_round_boundaries(monkeypatch, session)
        bdp_topk(session, list(range(10)), 3)

        assert len(seen) == len(BDP_LOSS)
        for bought, doc in enumerate(seen, start=1):
            assert sorted(doc) == sorted(BASE_KEYS + ["bdp"])
            section = doc["bdp"]
            assert list(section) == ["comparisons", "ties", "loss"]
            assert (section["comparisons"], section["ties"]) == (bought, 0)
            assert doc["comparisons"] == bought
        assert [doc["bdp"]["loss"] for doc in seen] == pytest.approx(
            BDP_LOSS, rel=1e-12
        )


def latent_session(scores, sigma, registry, **config) -> CrowdSession:
    config.setdefault("resilience", ResiliencePolicy())
    return CrowdSession(
        LatentScoreOracle(np.asarray(scores, dtype=float), GaussianNoise(sigma)),
        ComparisonConfig(confidence=0.95, budget=1000, **config),
        seed=0,
        telemetry=registry,
    )


class TestOwnCounts:
    def test_concurrent_sessions_report_only_their_own_counts(self, tmp_path):
        # Two queries on one registry at the same time: each session's
        # degraded ties and checkpoints are its own, while the registry
        # keeps the totals.
        registry = MetricsRegistry()
        sessions = {
            # Close scores, tiny batches, a high cold start: no verdict
            # inside one round, so the 1-round deadline degrades both the
            # group's pair and the single comparison's.
            "degrading": latent_session(
                [0.0, 0.01], 3.0, registry, batch_size=5, min_workload=30,
                resilience=ResiliencePolicy(retry=RetryPolicy(deadline_rounds=1)),
            ),
            "clean": latent_session(
                [0.0, 5.0], 0.5, registry, batch_size=10, min_workload=2
            ),
        }
        checkpoints = {"degrading": 2, "clean": 3}
        in_step = threading.Barrier(2, timeout=30)

        def query(name: str) -> None:
            session = sessions[name]
            in_step.wait()
            session.compare_many([(1, 0)])
            session.compare(1, 0)
            in_step.wait()  # both have compared before either checkpoints
            for turn in range(checkpoints[name]):
                session.checkpoint(tmp_path / f"{name}-{turn}.ckpt")

        threads = [
            threading.Thread(target=query, args=(name,)) for name in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        degrading = sessions["degrading"].progress()
        clean = sessions["clean"].progress()
        assert (degrading["degraded_ties"], degrading["checkpoints"]) == (2, 2)
        assert (clean["degraded_ties"], clean["checkpoints"]) == (0, 3)
        assert registry.counter_value(
            "crowd_degraded_ties_total", reason="deadline"
        ) == 2
        assert registry.counter_value("crowd_checkpoints_total") == 5

    def test_comparator_counts_into_the_sessions_registry(self):
        registry = MetricsRegistry()
        session = latent_session(
            [0.0, 1.0], 1.0, registry, batch_size=10, min_workload=2
        )
        with use_registry() as ambient:
            record = session.compare(1, 0)
        assert record.cost > 0
        assert registry.counter_value("oracle_judgments_total") >= record.cost
        assert ambient.counter_value("oracle_judgments_total") == 0


class TestDerivedFields:
    def test_progress_leaves_derived_fields_to_the_reader(self):
        session = latent_session(
            [0.0, 1.0], 1.0, MetricsRegistry(), batch_size=10, min_workload=2
        )
        calls = []

        def total(values):
            calls.append(values)
            return sum(values)

        session.publish_progress("demo", {"n": 2, "total": partial(total, (1, 2))})
        doc = session.progress()
        assert calls == []  # reading the snapshot derives nothing
        assert dict(doc["demo"]) == {"n": 2, "total": 3}
        assert json.loads(json.dumps(doc, default=_jsonable))["demo"] == {
            "n": 2, "total": 3,
        }
        assert len(calls) == 2
        session.publish_progress("demo", None)
        assert "demo" not in session.progress()


class TestScrapesUnderLoad:
    def test_queries_and_healthz_never_report_an_error(self):
        # Switch threads every microsecond so scrapes land mid-round in
        # both loops; every row must still be a clean snapshot.
        specs = [
            QuerySpec(method=method, k=k, dataset="jester", n_items=n, seed=seed)
            for seed in range(3)
            for method, k, n in (("spr", 10, 100), ("bdp", 3, 10))
        ]
        rows = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(max_workers=2, registry=MetricsRegistry()) as service:
                with ObservatoryServer(
                    registry=service.registry, service=service
                ) as observatory:
                    handles = [service.submit(spec) for spec in specs]
                    deadline = time.monotonic() + 120
                    while not all(handle.done for handle in handles):
                        assert time.monotonic() < deadline, "queries never finished"
                        for route in ("/queries", "/healthz"):
                            with urllib.request.urlopen(
                                observatory.url + route, timeout=30
                            ) as response:
                                assert response.status == 200
                                doc = json.load(response)
                            if route == "/queries":
                                rows.extend(doc["queries"])
                            else:
                                assert doc["status"] == "ok"
                    for handle in handles:
                        handle.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert rows
        assert not [row for row in rows if "error" in row]
        assert any(row["status"] == "running" for row in rows)
        for row in rows:
            if "partition" in row:
                assert row["partition"]["pool"]["pairs"] > 0
            if "bdp" in row:
                assert row["bdp"]["loss"] > 0


class TestNoReferenceCycles:
    def test_a_finished_query_frees_its_session_by_reference_counting(self):
        # A session holds a query's whole judgment cache; a reference
        # cycle through it (say, a comparator pointing back at its
        # session) would keep every finished query's cache alive until
        # the cycle collector runs, and the service's peak memory with it.
        session = fixed_session(30, seed=2, sigma=1.0)
        spr_topk(session, list(range(30)), 3)
        session.compare(1, 0)
        alive = weakref.ref(session)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del session
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
