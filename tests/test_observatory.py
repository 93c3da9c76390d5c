"""The HTTP observatory: endpoints, progress plumbing, serving invariance."""

import http.client
import json
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import load_dataset, spr_topk
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    ObservatoryServer,
    QueryBoard,
    parse_address,
    use_registry,
)
from repro.telemetry import server as server_module
from tests.conftest import make_latent_session
from tests.test_telemetry import PROMETHEUS_LINE

SCORES = [0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5]


def _get(url: str) -> tuple[int, str, str]:
    """(status, body, content-type) of a GET, errors included."""
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.read().decode(), resp.headers["Content-Type"]
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode(), err.headers["Content-Type"]


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("0.0.0.0:9188") == ("0.0.0.0", 9188)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address("9188") == ("127.0.0.1", 9188)

    def test_colon_port(self):
        assert parse_address(":0") == ("127.0.0.1", 0)

    def test_rejects_non_numeric_port(self):
        with pytest.raises(ValueError):
            parse_address("localhost:http")


class TestQueryBoard:
    def test_register_progress_unregister(self):
        board = QueryBoard()
        session = make_latent_session(SCORES)
        board.register("q1", session)
        assert board.names() == ["q1"]
        doc = board.progress()
        assert doc["queries"][0]["query"] == "q1"
        assert doc["queries"][0]["cost"] == 0
        board.unregister("q1")
        board.unregister("q1")  # idempotent
        assert board.progress() == {"queries": []}


class TestEndpoints:
    @pytest.fixture
    def observatory(self):
        registry = MetricsRegistry()
        registry.counter("crowd_microtasks_total").inc(42)
        registry.counter("c_total", path='a"b\\c').inc()
        registry.describe("c_total", "odd\\path\nmetric")
        recorder = FlightRecorder(capacity=8)
        recorder.attach(registry=registry)
        registry.emit("fault", mode="loss", count=1)
        registry.emit("checkpoint", path="x.ckpt")
        with ObservatoryServer(registry=registry, recorder=recorder) as obs:
            obs.queries.register("demo", make_latent_session(SCORES))
            yield obs

    def test_metrics_scrape_is_conformant_prometheus(self, observatory):
        status, body, ctype = _get(observatory.url + "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        for line in body.splitlines():
            assert PROMETHEUS_LINE.match(line), line
        assert "crowd_microtasks_total 42" in body

    def test_escapes_round_trip_through_a_real_scrape(self, observatory):
        _, body, _ = _get(observatory.url + "/metrics")
        # label escaping: backslash and quote
        assert 'c_total{path="a\\"b\\\\c"} 1' in body
        # help escaping: backslash and newline (stays one line)
        assert "# HELP c_total odd\\\\path\\nmetric" in body

    def test_healthz(self, observatory):
        status, body, ctype = _get(observatory.url + "/healthz")
        assert status == 200
        assert ctype.startswith("application/json")
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["queries"] == ["demo"]
        assert doc["recorder_events"] == 2

    def test_queries_endpoint_reports_live_progress(self, observatory):
        status, body, _ = _get(observatory.url + "/queries")
        assert status == 200
        entry = json.loads(body)["queries"][0]
        assert entry["query"] == "demo"
        for key in ("phase", "cost", "budget_cap", "rounds", "comparisons"):
            assert key in entry

    def test_events_endpoint_tails_the_recorder(self, observatory):
        _, body, _ = _get(observatory.url + "/events?n=1")
        doc = json.loads(body)
        assert len(doc["events"]) == 1
        assert doc["events"][0]["type"] == "checkpoint"
        assert doc["events_seen"] == 2

    def test_events_rejects_non_integer_n(self, observatory):
        status, body, _ = _get(observatory.url + "/events?n=soon")
        assert status == 400
        assert "integer" in json.loads(body)["error"]

    def test_unknown_route_404_lists_routes(self, observatory):
        status, body, _ = _get(observatory.url + "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["routes"]

    def test_kept_alive_connection_answers_without_a_delayed_ack_stall(
        self, observatory
    ):
        # Headers and body are separate writes; with Nagle's algorithm on,
        # each response after the first waits ~40 ms for the client's
        # delayed ACK.  A median well under that shows it is off.
        split = urllib.parse.urlsplit(observatory.url)
        conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
        try:
            times = []
            for _ in range(5):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                times.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(times) < 0.020, times

    def test_requests_are_counted_per_route(self, observatory):
        _get(observatory.url + "/healthz")
        _get(observatory.url + "/healthz")
        registry = observatory.registry
        assert (
            registry.counter_value("observatory_requests_total", route="/healthz")
            >= 2
        )


class TestServerLifecycle:
    def test_ephemeral_port_resolves_and_stop_is_idempotent(self):
        obs = ObservatoryServer(registry=MetricsRegistry())
        assert obs.port == 0
        obs.start()
        try:
            assert obs.port != 0
            assert obs.running
            assert re.match(r"http://127\.0\.0\.1:\d+$", obs.url)
        finally:
            obs.stop()
        assert not obs.running
        obs.stop()  # second stop is a no-op

    def test_silent_and_stalled_connections_are_closed(self, monkeypatch):
        assert server_module._Handler.timeout == server_module.IDLE_TIMEOUT_S
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with ObservatoryServer(registry=MetricsRegistry()) as obs:
            for sent in (b"", b"GET /healthz HTTP/1.1\r\nHost: x"):
                with socket.create_connection(("127.0.0.1", obs.port)) as sock:
                    sock.sendall(sent)
                    sock.settimeout(10.0)
                    started = time.monotonic()
                    assert sock.recv(1024) == b""  # closed by the server
                    assert time.monotonic() - started < 5.0
            # The freed threads leave the server answering.
            assert _get(obs.url + "/healthz")[0] == 200

    def test_events_without_recorder_is_empty(self):
        with ObservatoryServer(registry=MetricsRegistry()) as obs:
            _, body, _ = _get(obs.url + "/events")
            assert json.loads(body) == {
                "capacity": 0, "events_seen": 0, "events": [],
            }


def _run_query(seed: int, serve: bool):
    """One small SPR query; returns (topk, cost, rounds, rng_state)."""
    dataset = load_dataset("jester")
    working = dataset.sample_items(20)
    with use_registry(MetricsRegistry()) as registry:
        session = dataset.session(seed=seed)
        if serve:
            recorder = FlightRecorder()
            recorder.attach(registry=registry, session=session)
            stop = threading.Event()
            hits = {"n": 0}

            def scrape(url):
                while not stop.is_set():
                    for route in ("/metrics", "/queries", "/events", "/healthz"):
                        _get(url + route)
                        hits["n"] += 1

            with ObservatoryServer(registry=registry, recorder=recorder) as obs:
                obs.queries.register("invariance", session)
                scraper = threading.Thread(target=scrape, args=(obs.url,))
                scraper.start()
                try:
                    result = spr_topk(session, working.ids.tolist(), k=5)
                finally:
                    stop.set()
                    scraper.join()
            assert hits["n"] > 0  # the query really ran under scraping
        else:
            result = spr_topk(session, working.ids.tolist(), k=5)
    return (
        result.topk,
        session.total_cost,
        session.total_rounds,
        session.rng.bit_generator.state,
    )


class TestServingInvariance:
    def test_scraped_query_is_bit_identical_to_unserved(self):
        served = _run_query(seed=11, serve=True)
        unserved = _run_query(seed=11, serve=False)
        assert served[0] == unserved[0]  # same top-k
        assert served[1] == unserved[1]  # same microtask cost
        assert served[2] == unserved[2]  # same latency rounds
        assert served[3] == unserved[3]  # same RNG state, bit for bit
