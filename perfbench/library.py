"""The library door: ``run_query(QuerySpec(...))`` from one thread.

``spr_imdb`` and ``bdp_jester`` send a fixed list of queries in a closed
loop; each query builds a fresh session.  The seed fixes the order of the
list.  A run answers the whole list in passes, at least two (three for
``bdp_jester``) and until ``--seconds`` have passed.  The count metrics come from the first pass,
and every repeat must reproduce its first answer.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (
    MIN_PASSES,
    MIN_QUERIES,
    ROOT,
    QueryLog,
    answer_problem,
    child_env,
    corrupt,
    median_setup,
    reference_s,
    wait_line,
)
from tracer import Tracer, diff, install, layer_metrics

#: What a ``crowd-topk query`` invocation pays before its query runs.
SETUP_CODE = (
    "import sys, repro; repro.load_dataset(sys.argv[1]); print('ready', flush=True)"
)


@dataclass(frozen=True)
class LibraryWorkload:
    method: str
    k: int
    dataset: str
    n_items: int | None
    #: Queries in the fixed list; their session seeds are
    #: ``first_seed .. first_seed + queries - 1``.
    queries: int
    first_seed: int
    #: Passes per run, at least; short queries need more to settle p90.
    passes: int


WORKLOADS = {
    "spr_imdb": LibraryWorkload("spr", 10, "imdb", None, MIN_QUERIES, 100_000, MIN_PASSES),
    "bdp_jester": LibraryWorkload("bdp", 3, "jester", 10, MIN_QUERIES, 200_000, MIN_PASSES + 1),
}


def measure_setup(dataset: str) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    ``repro`` and loaded ``dataset``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, dataset],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        wait_line(proc, proc.stdout, "ready")
        return time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(60)


def run(name: str, seed: int, seconds: float, trace: bool, corruption: str | None):
    """Returns ``(metrics, log, report)`` for one run of workload ``name``."""
    from repro.datasets import load_dataset
    from repro.datasets.registry import clear_dataset_cache
    from repro.metrics import ndcg_at_k
    from repro.service import QuerySpec, runner
    from repro.telemetry import MetricsRegistry

    workload = WORKLOADS[name]
    setup_s = None if trace else median_setup(lambda: measure_setup(workload.dataset))

    dataset = load_dataset(workload.dataset)
    base = QuerySpec(method=workload.method, k=workload.k,
                     dataset=workload.dataset, n_items=workload.n_items)
    itemset = dataset.sample_items(workload.n_items)
    working = set(base.resolve_items(dataset))
    specs = [base.with_(seed=workload.first_seed + i) for i in range(workload.queries)]
    order = list(range(workload.queries))
    random.Random(seed).shuffle(order)

    registry = MetricsRegistry()
    log = QueryLog()
    pending = [corruption]

    def ask(index: int) -> tuple[float, float]:
        """Answer query ``index``; ``(latency, reference seconds)``."""
        ref = reference_s()
        before = registry.counter_value("crowd_microtasks_total")
        start = time.perf_counter()
        try:
            outcome = runner.run_query(specs[index], registry)
        except Exception as exc:  # a failed query counts; the run goes on
            latency = time.perf_counter() - start
            log.record(index, latency, ref, None, f"query {index} raised {exc!r}")
            return latency, ref
        latency = time.perf_counter() - start
        charged = registry.counter_value("crowd_microtasks_total") - before
        topk, cost = corrupt([int(i) for i in outcome.topk], int(outcome.cost),
                             pending.pop() if pending else None, max(working) + 1)
        problem = answer_problem(topk, workload.k, working)
        if problem is None and cost != charged:
            problem = f"query {index} reports cost {cost}, the session charged {charged}"
        log.record(index, latency, ref,
                   (tuple(topk), cost, int(outcome.rounds)), problem)
        return latency, ref

    def run_pass() -> tuple[float, float, float]:
        """One closed-loop pass over ``order``.

        Returns the wall time without the reference timings, their
        median, and the summed query latency."""
        wall, refs, busy = 0.0, [], 0.0
        for index in order:
            start = time.perf_counter()
            latency, ref = ask(index)
            wall += time.perf_counter() - start - ref
            refs.append(ref)
            busy += latency
        return wall, statistics.median(refs), busy

    if not trace:
        passes = [run_pass()[:2] for _ in range(workload.passes)]
        while sum(wall for wall, _ in passes) < seconds:
            passes.append(run_pass()[:2])
        metrics = log.latency_metrics(passes, len(order))
        metrics.update(log.counts(
            list(range(workload.queries)),
            lambda key, topk: ndcg_at_k(itemset, topk, workload.k),
        ))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics, log, {"counts": {k: metrics[k] for k in
                                         ("tmc_per_query", "rounds_per_query", "ndcg_at_k")}}

    # Traced run: one pass untraced, then the same pass traced.
    untraced_wall, _, _ = run_pass()
    tracer = Tracer()
    install(tracer)
    clear_dataset_cache()
    from repro.datasets import load_dataset as traced_load  # rebound by install

    traced_load(workload.dataset)  # the cold load, through the traced door
    before = tracer.totals()
    traced_wall, _, query_wall = run_pass()
    metrics = layer_metrics(
        diff(tracer.totals(), before), queries=len(order), query_wall_s=query_wall,
        traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
        load_s=before["counts"]["datasets.load_s"],
    )
    return metrics, log, {"layers": metrics}
