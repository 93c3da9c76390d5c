"""The HTTP door: ``crowd-topk serve`` in a subprocess, two client threads.

Each client owns one tenant, and each tenant stays on one dataset: the
shared judgment cache keys namespaces by tenant only, so a tenant that
switched datasets would reuse another dataset's judgments for equal item
ids.  A client POSTs ``/submit`` and polls ``/result`` every
:data:`POLL_S` seconds, which is therefore the latency resolution.

A tenant's fixed sequence alternates fresh seeds (cache writes) with an
immediate repeat of the same query (cache reads), and alternates ``spr``
with ``tournament``.  The sequence does not depend on ``--seed``: the
cost of a query depends on the queries before it in the tenant's cache,
and reordering them moved ``tmc_per_query`` by 6% between seeds.  The
clients run the sequences in passes, at least three and until
``--seconds`` have passed; both clients finish a pass before either
starts the next, and each pass uses fresh tenant namespaces, so every
pass does the same work.  The cache is bounded at
twice one pass's entries: only namespaces of finished passes are ever
evicted, and memory stays flat however many passes fit in a run.

Every answer must equal the one an in-process ``QueryService`` gives for
the same per-tenant sequence (door parity); that reference is computed
before the clock starts.
"""

from __future__ import annotations

import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from common import (
    MIN_PASSES,
    ROOT,
    WORK,
    BenchError,
    QueryLog,
    answer_problem,
    child_env,
    corrupt,
    drain,
    peak_rss_mb_of,
    reference_s,
    stop_process,
    wait_line,
)
from tracer import layer_metrics

#: Interval between two ``/result`` polls of one client, in seconds.
POLL_S = 0.002
#: Passes per run, at least: the polling clients and the workers contend
#: for the server's interpreter, so p90 needs a third pass to settle.
PASSES = MIN_PASSES + 1
#: ``crowd-topk serve --workers``.
WORKERS = 2
K = 10
#: Fresh seeds per tenant and pass; each is asked twice (cold, then warm).
FRESH_SEEDS = 25
#: tenant -> (dataset, n_items, first session seed)
TENANTS = {
    "a": ("jester", None, 300_000),
    "b": ("imdb", 200, 400_000),
}
LAUNCHER = Path(__file__).resolve().parent / "serve_traced.py"


def sequences() -> dict:
    """Each tenant's fixed query sequence for one pass."""
    from repro.service import QuerySpec

    plans = {}
    for tenant, (dataset, n_items, first_seed) in TENANTS.items():
        plan = []
        for position in range(FRESH_SEEDS):
            spec = QuerySpec(
                method=("spr", "tournament")[position % 2], k=K, dataset=dataset,
                n_items=n_items, seed=first_seed + position, tenant=tenant,
            )
            plan += [spec, spec]
        plans[tenant] = plan
    return plans


def reference(plans: dict) -> tuple[dict, int]:
    """Answers of an in-process ``QueryService``, and its cache entries."""
    from repro.service import QueryService
    from repro.telemetry import MetricsRegistry

    answers = {}
    with QueryService(max_workers=WORKERS, registry=MetricsRegistry()) as service:
        for tenant, plan in plans.items():
            for position, spec in enumerate(plan):
                outcome = service.submit(spec).result(timeout=120)
                answers[tenant, position] = (
                    tuple(int(i) for i in outcome.topk),
                    int(outcome.cost),
                    int(outcome.rounds),
                )
        entries = service.cache.stats()["entries"]
    return answers, entries


class Server:
    """One ``crowd-topk serve`` subprocess, ready once ``/healthz`` is 200."""

    def __init__(self, cache_entries: int, traced_out: Path | None = None) -> None:
        if traced_out is None:
            program = [sys.executable, "-m", "repro.cli"]
        else:
            program = [sys.executable, str(LAUNCHER), str(traced_out)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            program + ["serve", "127.0.0.1:0", "--workers", str(WORKERS),
                       "--cache-entries", str(cache_entries)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        self.requests = 0  # made by the benchmark itself, not by clients
        try:
            line = wait_line(self.proc, self.proc.stderr, "serving at")
            self._reader = drain(self.proc.stderr)
            url = urlsplit(line.split("serving at", 1)[1].strip())
            self.host, self.port = url.hostname, url.port
            deadline = time.monotonic() + 60
            while True:
                try:
                    self.get("/healthz")
                    break
                except (OSError, BenchError):
                    if time.monotonic() > deadline:
                        raise BenchError("serve never answered /healthz") from None
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        self.requests += 1
        if response.status != 200:
            raise BenchError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def stop(self) -> None:
        stop_process(self.proc, signal.SIGINT)
        if getattr(self, "_reader", None) is not None:
            self._reader.join(10)
        self.proc.stderr.close()


def _request(server: Server, method: str, path: str, body: str | None = None):
    """One request on a connection of its own, as ``crowd-topk submit`` makes
    them.  (A kept-alive connection waits ~40 ms per response on Linux: the
    handler writes headers and body separately, so Nagle's algorithm holds
    the body until the client's delayed ACK.)"""
    conn = server.connect()
    try:
        conn.request(method, path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def drive(server: Server, plans: dict, log: QueryLog, check,
          seconds: float, passes: int | None = None) -> list[float]:
    """Run passes, at least two and until ``seconds`` (or exactly
    ``passes``); returns each pass's wall time and median reference time."""
    lock = threading.Lock()
    stop = threading.Event()
    done: list[tuple[float, float]] = []
    refs: list[float] = []
    start = [time.perf_counter()]

    def end_of_pass() -> None:
        now = time.perf_counter()
        done.append((now - start[0], statistics.median(refs)))
        refs.clear()
        start[0] = now
        if passes is not None:
            finished = len(done) >= passes
        else:
            finished = len(done) >= PASSES and sum(w for w, _ in done) >= seconds
        if finished:
            stop.set()

    barrier = threading.Barrier(len(plans), action=end_of_pass, timeout=300)
    errors: list[BaseException] = []

    def ask(tenant: str, namespace: str, position: int, spec) -> None:
        document = spec.with_(tenant=namespace).to_document()
        ref = reference_s()
        sent = time.perf_counter()
        status, reply = _request(server, "POST", "/submit", json.dumps(document))
        if status == 202:
            path = f"/result?id={reply['id']}"
            while True:
                status, reply = _request(server, "GET", path)
                if status != 202:
                    break
                time.sleep(POLL_S)
        latency = time.perf_counter() - sent
        with lock:
            refs.append(ref)
            if status != 200 or reply.get("status") != "done":
                log.record((tenant, position), latency, ref, None,
                           f"{namespace}#{position}: {status} {reply}")
            else:
                log.record((tenant, position), latency, ref,
                           *check(tenant, position, reply))

    def client(tenant: str) -> None:
        try:
            index = 0
            while not stop.is_set():
                for position, spec in enumerate(plans[tenant]):
                    ask(tenant, f"{tenant}{index}", position, spec)
                barrier.wait()
                index += 1
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(t,)) for t in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    return done


def cache_counts(server: Server) -> tuple[int, int, int]:
    """(hits, misses) of the first pass's namespaces, evictions of all."""
    tenants = server.get("/queries")["service"]["cache"]["tenants"]
    first = [tenants[f"{tenant}0"] for tenant in TENANTS]
    return (
        sum(t["hits"] for t in first),
        sum(t["misses"] for t in first),
        sum(t["evictions"] for t in tenants.values()),
    )


def run(name: str, seed: int, seconds: float, trace: bool, corruption: str | None):
    """Returns ``(metrics, log, report)`` for one run of ``service_http``."""
    from repro.datasets import load_dataset
    from repro.metrics import ndcg_at_k

    plans = sequences()
    answers, entries = reference(plans)
    itemsets, working = {}, {}
    for tenant, (dataset, n_items, _) in TENANTS.items():
        itemsets[tenant] = load_dataset(dataset).sample_items(n_items)
        working[tenant] = set(itemsets[tenant].ids.tolist())
    pending = [corruption]

    def check(tenant: str, position: int, reply: dict):
        topk, cost = corrupt([int(i) for i in reply["topk"]], int(reply["cost"]),
                             pending.pop() if pending else None,
                             max(working[tenant]) + 1)
        answer = (tuple(topk), cost, int(reply["rounds"]))
        problem = answer_problem(topk, K, working[tenant])
        expected = answers[tenant, position]
        if problem is None and answer != expected:
            problem = f"{tenant}#{position} over HTTP {answer}, in process {expected}"
        return answer, problem

    log = QueryLog()
    cache_entries = 2 * entries
    if not trace:
        servers = []
        try:
            servers = [Server(cache_entries)]
            for _ in range(1, 3):
                servers[-1].stop()
                servers.append(Server(cache_entries))
            setup_s = statistics.median(s.ready_s for s in servers)
            server = servers[-1]
            passes = drive(server, plans, log, check, seconds)
            rss = peak_rss_mb_of(server.proc.pid)
            hits, misses, _ = cache_counts(server)
        finally:
            for server in servers:
                server.stop()
        keys = [(tenant, p) for tenant, plan in plans.items() for p in range(len(plan))]
        metrics = log.latency_metrics(passes, len(keys))
        metrics.update(log.counts(
            keys, lambda key, topk: ndcg_at_k(itemsets[key[0]], topk, K)))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = rss
        counts = {k: metrics[k] for k in ("tmc_per_query", "rounds_per_query", "ndcg_at_k")}
        counts.update(cache_hits=hits, cache_misses=misses)
        return metrics, log, {"counts": counts}

    # Traced run: one pass on an untraced server, the same on a traced one.
    server = Server(cache_entries)
    try:
        ((untraced_wall, _),) = drive(server, plans, log, check, 0.0, passes=1)
    finally:
        server.stop()
    WORK.mkdir(exist_ok=True)
    out = WORK / "serve_layers.json"
    server = Server(cache_entries, traced_out=out)
    try:
        ((traced_wall, _),) = drive(server, plans, log, check, 0.0, passes=1)
        cache = cache_counts(server)
    finally:
        server.stop()
    if not out.is_file():
        raise BenchError("the traced server wrote no layer totals")
    totals = json.loads(out.read_text())
    metrics = layer_metrics(
        totals, queries=sum(map(len, plans.values())), query_wall_s=totals["root_s"],
        traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
        load_s=totals["counts"].get("datasets.load_s", 0.0),
        requests=totals["counts"].get("telemetry.server.requests", 0.0) - server.requests,
        cache=cache,
    )
    return metrics, log, {"layers": metrics, "poll_s": POLL_S}
