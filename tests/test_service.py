"""The multi-tenant query service: identity, SLAs, fairness, durability."""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.algorithms.bdp import MAX_ITEMS as BDP_MAX_ITEMS
from repro.errors import (
    AdmissionError,
    BudgetExhaustedError,
    ConfigError,
    QueryCancelledError,
    SLAExceededError,
)
from repro.service import (
    AdmissionController,
    FairMarketplace,
    QueryService,
    QuerySpec,
    run_query,
    spec_from_document,
)
from repro.telemetry import MetricsRegistry, ObservatoryServer
from repro.telemetry import server as server_module
from repro.telemetry.server import MAX_BODY_BYTES

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A small, fast spec most tests build on.
BASE = QuerySpec(
    method="spr", k=3, dataset="synthetic", n_items=12, seed=7,
    tenant="acme", cost_sla=500_000,
)


def make_service(**kwargs) -> QueryService:
    kwargs.setdefault("registry", MetricsRegistry())
    return QueryService(**kwargs)


class TestQuerySpec:
    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            QuerySpec(method="sortalot")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            QuerySpec(k=0)
        with pytest.raises(ConfigError):
            QuerySpec(k=5, n_items=3)
        with pytest.raises(ConfigError):
            QuerySpec(cost_sla=0)
        with pytest.raises(ConfigError):
            QuerySpec(tenant="")
        with pytest.raises(ConfigError):
            QuerySpec(dataset=None, items=None)

    def test_rejects_a_bdp_working_set_past_its_memory_bound(self):
        too_many = BDP_MAX_ITEMS + 1
        with pytest.raises(ConfigError, match="bdp answers at most"):
            BASE.with_(method="bdp", n_items=too_many)
        with pytest.raises(ConfigError, match="bdp answers at most"):
            BASE.with_(method="bdp", items=range(too_many))
        # Explicit items win over n_items, as in resolve_items.
        assert BASE.with_(method="bdp", items=range(4), n_items=too_many).items
        assert BASE.with_(method="bdp", n_items=BDP_MAX_ITEMS).n_items
        assert BASE.with_(n_items=too_many).method == "spr"

    def test_document_round_trip(self):
        spec = BASE.with_(latency_sla=50, name="night-batch")
        revived = spec_from_document(spec.to_document())
        assert revived == spec

    def test_rejects_method_kwargs_the_method_does_not_take(self):
        with pytest.raises(ConfigError, match=r"\['step', 'window'\]"):
            BASE.with_(method="pbr", method_kwargs={"steps": 2})
        with pytest.raises(ConfigError, match="accepted keywords: none"):
            spec_from_document(
                {"method": "tournament", "method_kwargs": {"nope": 1}}
            )
        with pytest.raises(ConfigError):
            BASE.with_(method_kwargs={"k": 4})
        assert BASE.with_(method="pbr", method_kwargs={"step": 2}).method_kwargs

    def test_document_rejects_unknown_fields(self):
        # ``execution`` was a spec field once; documents persisted then
        # must now be refused like any other unknown key, by name.  So
        # must a comparison key, except ``group_engine`` at "racing".
        for extra, name in (
            ({"workers": 4}, "workers"),
            ({"execution": {"n_jobs": 2}}, "execution"),
            ({"comparison": {"group_engine": "sequential"}}, "group_engine"),
            ({"comparison": {"bogus": 1}}, "bogus"),
        ):
            with pytest.raises(ConfigError, match=name):
                spec_from_document({"method": "spr", **extra})

    def test_document_with_the_racing_group_engine_revives(self):
        # Documents written while the group engine was selectable carry
        # its default; they revive as the same spec.
        document = BASE.to_document()
        document["comparison"]["group_engine"] = "racing"
        assert spec_from_document(document) == BASE

    def test_partial_document_takes_defaults(self):
        spec = spec_from_document({"method": "bdp", "k": 4})
        assert spec.method == "bdp"
        assert spec.tenant == "default"
        assert spec.dataset == "jester"

    def test_display_name(self):
        assert BASE.display_name == "acme/spr:k=3"
        assert BASE.with_(name="nightly").display_name == "nightly"


class TestSubmitValidation:
    def test_refuses_more_items_than_the_dataset_holds(self):
        # sample_items clamps n_items to the dataset: a spec asking for
        # more would be answered over the whole dataset instead.
        jester = BASE.with_(dataset="jester", cost_sla=None)
        with make_service(max_workers=1) as service:
            with pytest.raises(ConfigError, match="exceeds the 100 items"):
                service.submit(jester.with_(n_items=100_000))
            with pytest.raises(ConfigError, match="unknown dataset"):
                service.submit(jester.with_(dataset="nope"))
            assert service.handles() == []
            # Exactly the whole dataset is a legal working set.
            handle = service.submit(jester.with_(method="tournament", n_items=100))
            assert len(handle.result(timeout=120).topk) == 3

    def test_refuses_items_the_dataset_lacks(self):
        # Unchecked, item -1 wrapped around to the dataset's last item:
        # the query answered (2, -1) and bought 1,203 microtasks.
        spec = QuerySpec(
            method="spr", k=2, dataset="synthetic", items=(-1, 0, 1, 2, 3)
        )
        with make_service(max_workers=1) as service:
            with pytest.raises(ConfigError, match=r"'synthetic' has no items \[-1\]"):
                service.submit(spec)
            with pytest.raises(ConfigError, match=r"no items \[-1, 200\]"):
                service.submit(spec.with_(items=(-1, 0, 1, 200)))
            assert service.handles() == []
        with pytest.raises(ConfigError, match=r"no items \[-1\]"):
            run_query(spec)


class TestSingleQueryIdentity:
    """submit(spec) on a cold tenant is bit-identical to the standalone run."""

    @pytest.mark.faultfree  # pins exact costs of one seeded trace
    @pytest.mark.parametrize("method", ["spr", "bdp"])
    def test_service_matches_standalone(self, method):
        spec = BASE.with_(method=method, tenant=f"iso-{method}")
        standalone = run_query(spec, registry=MetricsRegistry())
        with make_service(max_workers=2) as service:
            outcome = service.submit(spec).result(timeout=120)
        assert list(outcome.topk) == list(standalone.topk)
        assert outcome.cost == standalone.cost
        assert outcome.rounds == standalone.rounds

    @pytest.mark.faultfree
    def test_handle_reports_the_outcome(self):
        with make_service(max_workers=1) as service:
            handle = service.submit(BASE)
            outcome = handle.result(timeout=120)
        assert handle.status() == "done"
        assert handle.done
        doc = handle.to_document()
        assert doc["status"] == "done"
        assert doc["tenant"] == "acme"
        assert doc["cost"] == outcome.cost
        assert doc["topk"] == list(outcome.topk)


class TestConcurrentTenants:
    def test_eight_queries_two_tenants_within_slas(self):
        registry = MetricsRegistry()
        with make_service(
            max_workers=4, marketplace_slots=2, registry=registry
        ) as service:
            handles = [
                service.submit(
                    BASE.with_(
                        tenant="acme" if n % 2 else "globex",
                        seed=n,
                        cost_sla=500_000,
                        latency_sla=10_000,
                    )
                )
                for n in range(8)
            ]
            outcomes = [handle.result(timeout=300) for handle in handles]
        assert all(handle.status() == "done" for handle in handles)
        for spec, outcome in zip((h.spec for h in handles), outcomes):
            assert outcome.cost <= spec.cost_sla
            assert outcome.rounds <= spec.latency_sla
        # Cross-query reuse: later queries answered comparisons from the
        # shared cache, and the per-tenant counters saw it.
        stats = service.cache.stats()["tenants"]
        assert stats["acme"]["hits"] > 0
        assert stats["globex"]["hits"] > 0
        assert registry.counter_total("service_cache_hits_total") > 0
        assert registry.counter_total("service_queries_total") == 8

    def test_two_workers_keep_each_query_span_tree_apart(self):
        # spr opens its phase spans one after another, so every span of a
        # query is a root; with two queries running at once, a span stack
        # shared between threads would nest one query's spans in the
        # other's and give the outer one a negative exclusive cost.
        registry = MetricsRegistry()
        with make_service(max_workers=2, registry=registry) as service:
            handles = [
                service.submit(BASE.with_(seed=n, n_items=40)) for n in range(8)
            ]
            outcomes = [handle.result(timeout=300) for handle in handles]
        spans = registry.spans
        assert len(spans) >= 3 * len(handles)
        assert [(s.parent, s.depth) for s in spans] == [(None, 0)] * len(spans)
        for span in spans:
            assert span.exclusive_cost >= 0 and span.exclusive_rounds >= 0
            assert span.exclusive_seconds >= 0
        assert sum(s.exclusive_cost for s in spans) == sum(
            outcome.cost for outcome in outcomes
        )

    def test_queries_document_carries_tenants_and_slas(self):
        with make_service(max_workers=2) as service:
            service.submit(BASE.with_(latency_sla=9_999)).result(timeout=120)
            document = service.queries_document()
        (row,) = document["queries"]
        assert row["tenant"] == "acme"
        assert row["cost_sla"] == 500_000
        assert row["latency_sla"] == 9_999
        assert row["status"] == "done"
        totals = document["service"]
        assert totals["finished"] == 1
        assert "acme" in totals["cache"]["tenants"]
        assert totals["marketplace"]["slots"] == 4


class TestAdmissionControl:
    def test_queue_policy_parks_then_runs(self):
        with make_service(max_workers=2, capacity=600_000) as service:
            first = service.submit(BASE.with_(seed=1))
            second = service.submit(BASE.with_(seed=2, tenant="globex"))
            assert first.result(timeout=120)
            assert second.result(timeout=120)
        assert service.admission.committed == 0

    def test_reject_policy_raises(self):
        with make_service(
            max_workers=1, capacity=600_000, admission="reject"
        ) as service:
            service.submit(BASE.with_(seed=1))
            with pytest.raises(AdmissionError):
                service.submit(BASE.with_(seed=2))

    def test_uncommitted_specs_always_admit(self):
        with make_service(
            max_workers=1, capacity=100, admission="reject"
        ) as service:
            handle = service.submit(BASE.with_(cost_sla=None))
            assert handle.result(timeout=120)

    def test_controller_bookkeeping(self):
        controller = AdmissionController(
            capacity=100, policy="queue", registry=MetricsRegistry()
        )
        assert controller.try_admit(60)
        assert not controller.try_admit(60)
        assert controller.committed == 60
        controller.release(60)
        assert controller.readmit(60)


class TestSLAs:
    def test_cost_sla_breach_fails_the_query(self):
        registry = MetricsRegistry()
        with make_service(max_workers=1, registry=registry) as service:
            handle = service.submit(BASE.with_(cost_sla=50))
            with pytest.raises(BudgetExhaustedError):
                handle.result(timeout=120)
        assert handle.status() == "failed"
        assert registry.counter_total("service_sla_breaches_total") == 1

    def test_latency_sla_breach_fails_the_query(self):
        registry = MetricsRegistry()
        with make_service(max_workers=1, registry=registry) as service:
            handle = service.submit(BASE.with_(latency_sla=1))
            with pytest.raises(SLAExceededError):
                handle.result(timeout=120)
        assert handle.status() == "failed"
        assert registry.counter_total("service_sla_breaches_total") == 1


class TestCancellation:
    def test_cancel_a_parked_query(self):
        with make_service(max_workers=1, capacity=500_000) as service:
            service.submit(BASE.with_(seed=1))
            parked = service.submit(BASE.with_(seed=2))
            assert parked.cancel()
            with pytest.raises(QueryCancelledError):
                parked.result(timeout=30)
        assert parked.status() == "cancelled"

    def test_cancel_a_running_query(self):
        with make_service(max_workers=1) as service:
            handle = service.submit(
                BASE.with_(method="bdp", n_items=25, tenant="slow")
            )
            while handle.status() == "queued":
                time.sleep(0.005)
            assert handle.cancel()
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=60)
        assert handle.status() == "cancelled"

    def test_cancel_after_completion_is_refused(self):
        with make_service(max_workers=1) as service:
            handle = service.submit(BASE)
            handle.result(timeout=120)
            assert not handle.cancel()


class TestFairMarketplace:
    def test_saturating_tenant_does_not_starve_the_light_one(self):
        market = FairMarketplace(
            slots=1, quantum=100, registry=MetricsRegistry()
        )
        heavy = market.open_lane("heavy")
        light = market.open_lane("light")
        heavy_rounds = []
        stop = threading.Event()

        def heavy_loop():
            while not stop.is_set():
                heavy.gate(50)
                heavy_rounds.append(1)
                # Simulated round work.  A gate-only spin never drops the
                # GIL, so the light tenant's gate() call cannot even reach
                # the marketplace lock until a switch interval (~5 ms)
                # elapses — thousands of µs-scale rounds.  Real rounds do
                # crowd work between gates; model that, then measure DRR.
                time.sleep(0.0005)
            heavy.close()

        worker = threading.Thread(target=heavy_loop, daemon=True)
        worker.start()
        while not heavy_rounds:
            time.sleep(0.001)
        before = len(heavy_rounds)
        light.gate(50)  # parks behind the saturating tenant, must grant
        starved_for = len(heavy_rounds) - before
        light.close()
        stop.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        # DRR: between any two rounds of the heavy tenant, the light
        # tenant's head request gets a visit — a handful of rounds at
        # most, never proportional to the heavy tenant's backlog.
        assert starved_for <= 5

    def test_abort_wakes_a_parked_lane(self):
        market = FairMarketplace(slots=1, registry=MetricsRegistry())
        holder = market.open_lane("a")
        holder.gate(10)  # takes the only slot and keeps it
        parked = market.open_lane("b")
        failure = []

        def blocked():
            try:
                parked.gate(10)
            except QueryCancelledError as exc:
                failure.append(exc)

        worker = threading.Thread(target=blocked, daemon=True)
        worker.start()
        while not market.snapshot()["waiting"].get("b"):
            time.sleep(0.001)
        parked.abort()
        worker.join(timeout=30)
        assert failure
        holder.close()

    def test_uncontended_lane_grants_in_place(self):
        market = FairMarketplace(slots=2, registry=MetricsRegistry())
        lane = market.open_lane("solo")
        for _ in range(100):
            lane.gate(25)
        lane.close()
        assert market.snapshot()["free_slots"] == 2


class TestServiceOverHttp:
    def test_submit_result_cancel_routes(self):
        with make_service(max_workers=2) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                url = observatory.url
                request = urllib.request.Request(
                    f"{url}/submit",
                    data=json.dumps(BASE.to_document()).encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    submitted = json.load(response)
                assert submitted["id"] == "q0001"
                service.handle(submitted["id"]).wait(timeout=120)
                with urllib.request.urlopen(
                    f"{url}/result?id={submitted['id']}"
                ) as response:
                    result = json.load(response)
                assert result["status"] == "done"
                assert result["tenant"] == "acme"
                with urllib.request.urlopen(f"{url}/queries") as response:
                    queries = json.load(response)
                assert queries["queries"][0]["tenant"] == "acme"
                assert "cache" in queries["service"]

    def test_bad_submissions_are_4xx(self):
        with make_service(max_workers=1) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                for body in (
                    {"method": "nope"},
                    {"method": "spr", "execution": {"run_engine": "pool"}},
                    {"method": "tournament", "method_kwargs": {"nope": 1}},
                    {"method": "bdp", "n_items": BDP_MAX_ITEMS + 1},
                    {"method": "spr", "comparison": {"group_engine": "sequential"}},
                    {"method": "spr", "dataset": "jester", "n_items": 100_000},
                ):
                    request = urllib.request.Request(
                        f"{observatory.url}/submit",
                        data=json.dumps(body).encode(),
                        method="POST",
                    )
                    with pytest.raises(urllib.error.HTTPError) as caught:
                        urllib.request.urlopen(request)
                    caught.value.close()
                    assert caught.value.code == 400
            assert service.handles() == []

    def test_items_the_dataset_lacks_are_400(self):
        body = QuerySpec(
            method="spr", k=2, dataset="synthetic", items=(-1, 0, 1, 2, 3)
        ).to_document()
        with make_service(max_workers=1) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                request = urllib.request.Request(
                    f"{observatory.url}/submit",
                    data=json.dumps(body).encode(),
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request)
                error = json.load(caught.value)["error"]
                caught.value.close()
                assert caught.value.code == 400
                assert "no items [-1]" in error
            assert service.handles() == []

    def test_oversized_body_is_413_unread(self):
        with make_service(max_workers=1) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                conn = http.client.HTTPConnection("127.0.0.1", observatory.port,
                                                  timeout=30)
                try:
                    # Headers only: the server must answer without waiting
                    # for a body it will never read.
                    conn.putrequest("POST", "/submit")
                    conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
                    conn.endheaders()
                    response = conn.getresponse()
                    assert response.status == 413
                    assert "exceeds" in json.load(response)["error"]
                    assert response.getheader("Connection") == "close"
                finally:
                    conn.close()
        assert service.handles() == []

    def test_result_waits_for_a_running_query(self, monkeypatch):
        monkeypatch.setattr(server_module, "RESULT_WAIT_S", 120.0)
        with make_service(max_workers=1) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                handle = service.submit(
                    BASE.with_(method="bdp", n_items=15, tenant="slow")
                )
                while handle.status() == "queued":
                    time.sleep(0.005)
                assert not handle.done
                status, result = _http(observatory.url, "GET",
                                       f"/result?id={handle.id}")
                assert status == 200
                assert result["status"] == "done"
                assert result["topk"] == list(handle.outcome.topk)
                assert service.registry.counter_value(
                    "observatory_requests_total", route="/result"
                ) == 1

    def test_parked_query_gets_202_once_the_wait_runs_out(self, monkeypatch):
        monkeypatch.setattr(server_module, "RESULT_WAIT_S", 0.05)
        with make_service(max_workers=1, capacity=500_000) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                running = service.submit(
                    BASE.with_(method="bdp", n_items=25, tenant="slow")
                )
                parked = service.submit(BASE.with_(seed=2))
                started = time.monotonic()
                status, pending = _http(observatory.url, "GET",
                                        f"/result?id={parked.id}")
                assert time.monotonic() - started >= 0.05
                assert status == 202
                assert pending == parked.to_document()
                assert pending["status"] == "queued"
                parked.cancel()
                running.cancel()

    def test_healthz_names_the_running_queries(self):
        with make_service(max_workers=1, capacity=500_000) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                running = service.submit(
                    BASE.with_(method="bdp", n_items=25, tenant="slow")
                )
                parked = service.submit(BASE.with_(seed=2))
                while running.status() == "queued":
                    time.sleep(0.005)
                status, health = _http(observatory.url, "GET", "/healthz")
                assert status == 200
                assert health["queries"] == [
                    f"{running.id}:{running.spec.display_name}"
                ]
                parked.cancel()
                running.cancel()

    def test_cancel_wakes_a_waiting_result(self, monkeypatch):
        monkeypatch.setattr(server_module, "RESULT_WAIT_S", 120.0)
        with make_service(max_workers=1) as service:
            with ObservatoryServer(
                registry=service.registry, service=service
            ) as observatory:
                handle = service.submit(
                    BASE.with_(method="bdp", n_items=25, tenant="slow")
                )
                replies: list = []
                waiter = threading.Thread(target=lambda: replies.append(
                    _http(observatory.url, "GET", f"/result?id={handle.id}")
                ))
                waiter.start()
                while service.registry.counter_value(
                    "observatory_requests_total", route="/result"
                ) < 1 or handle.status() == "queued":
                    time.sleep(0.005)
                status, cancelled = _http(observatory.url, "POST",
                                          f"/cancel?id={handle.id}")
                assert status == 200 and cancelled["cancelled"]
                waiter.join(timeout=30)
                assert not waiter.is_alive()
                assert replies == [(200, handle.to_document())]
                assert replies[0][1]["status"] == "cancelled"


def _http(url: str, method: str, path: str) -> tuple[int, dict]:
    """(status, JSON reply) of one request answered with a 2xx status."""
    request = urllib.request.Request(f"{url}{path}", method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.load(response)


# ----------------------------------------------------------------------
# Durability: SIGKILL a service mid-flight, recover in a fresh process.
# ----------------------------------------------------------------------

#: Three sizeable resumable queries on three distinct tenants — distinct
#: so each recovered query's private checkpointed cache holds exactly its
#: own judgments and resume stays bit-identical to an undisturbed run.
_KILL_SPECS = [
    {"method": "bdp", "k": 3, "dataset": "synthetic", "n_items": 22,
     "seed": n, "tenant": f"tenant-{n}", "cost_sla": 5_000_000}
    for n in range(3)
]

_DRIVER = """
import json, sys, time
from repro.service import QueryService, QuerySpec, run_query, spec_from_document
from repro.telemetry import MetricsRegistry

mode, state_dir = sys.argv[1], sys.argv[2]
specs = [spec_from_document(doc) for doc in json.loads(sys.argv[3])]
if mode == "baseline":
    rows = []
    for spec in specs:
        outcome = run_query(spec, registry=MetricsRegistry())
        rows.append({"topk": list(outcome.topk), "cost": outcome.cost,
                     "rounds": outcome.rounds})
    print(json.dumps(rows))
elif mode == "start":
    service = QueryService(max_workers=3, state_dir=state_dir,
                           registry=MetricsRegistry())
    for spec in specs:
        service.submit(spec)
    print("submitted", flush=True)
    time.sleep(300)
elif mode == "recover":
    service = QueryService(max_workers=3, state_dir=state_dir,
                           registry=MetricsRegistry())
    revived = service.recover()
    rows = {}
    for handle in revived:
        outcome = handle.result(timeout=300)
        rows[handle.id] = {"topk": list(outcome.topk), "cost": outcome.cost,
                           "rounds": outcome.rounds,
                           "resumed": bool(outcome.extras.get("resumed"))}
    service.close()
    print(json.dumps(rows))
"""


def _driver_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("CROWD_TOPK_FAULT_RATE", None)  # the queries must be reproducible
    return env


def _run_driver(mode: str, state_dir: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, mode, state_dir, json.dumps(_KILL_SPECS)],
        capture_output=True, text=True, env=_driver_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestKillAndRecover:
    def test_sigkill_with_three_in_flight_queries(self, tmp_path):
        """The tentpole durability scenario: a service with three running
        queries dies without warning; a fresh process recovers all three
        from their spec+checkpoint pairs and finishes them with the exact
        top-k, cost and rounds of never having been killed."""
        state_dir = str(tmp_path / "svc")
        baseline = json.loads(_run_driver("baseline", state_dir))

        proc = subprocess.Popen(
            [sys.executable, "-c", _DRIVER, "start", state_dir,
             json.dumps(_KILL_SPECS)],
            stdout=subprocess.PIPE, text=True, env=_driver_env(),
        )
        try:
            assert proc.stdout.readline().strip() == "submitted"
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                names = os.listdir(state_dir)
                if sum(name.endswith(".ckpt") for name in names) == 3:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("checkpoints never appeared")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        names = os.listdir(state_dir)
        finished = [n for n in names if n.endswith(".result.json")]
        assert not finished, f"queries finished before the kill: {finished}"

        recovered = json.loads(_run_driver("recover", state_dir))
        assert len(recovered) == 3
        for row, expected in zip(
            (recovered[f"q{n + 1:04d}"] for n in range(3)), baseline
        ):
            assert row["resumed"]
            assert row["topk"] == expected["topk"]
            assert row["cost"] == expected["cost"]
            assert row["rounds"] == expected["rounds"]
