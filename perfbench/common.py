"""Shared pieces of the benchmark: paths, answer checks, the query log."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The checkout the benchmark runs in; the program is built from ``src``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files of one run (the traced server's layer totals); removed
#: when the run ends.
WORK = ROOT / ".perfbench_work"

#: Queries in a workload's list, at least, so ten lie beyond p90.
MIN_QUERIES = 100
#: Passes over the list in a run, at least; latencies are best-of-passes.
MIN_PASSES = 2
#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 3
#: Ways ``--corrupt`` can falsify the first answer, to prove the checks fail.
CORRUPTIONS = ("duplicate", "foreign", "cost")
#: Duration of :func:`reference_s`'s computation on the unloaded 2-vCPU
#: host the benchmark was tuned on; the scale of the normalized metrics.
REF_NOMINAL_S = 0.0023


def reference_s() -> float:
    """Time a fixed computation (a Python loop and numpy arithmetic).

    Timed next to every query: a query's latency times
    ``REF_NOMINAL_S / reference_s()`` is what it would have been on the
    unloaded host, which cancels the drift of a shared host's speed.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    values = np.arange(20_000, dtype=np.float64)
    for _ in range(20):
        np.sqrt(values * values + 1.0).sum()
    return time.perf_counter() - start


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def stop_process(proc: subprocess.Popen, sig: int, timeout: float = 20.0) -> None:
    """Send ``sig``, wait; kill if it does not end in ``timeout`` seconds."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def corrupt(topk: list, cost: int, kind: str | None, outside: int) -> tuple[list, int]:
    """Falsify one answer the way ``kind`` names (``None`` leaves it);
    ``outside`` is an id that is not in the working set."""
    if kind == "duplicate":
        topk = topk[:-1] + topk[:1]
    elif kind == "foreign":
        topk = topk[:-1] + [outside]
    elif kind == "cost":
        cost += 1
    return topk, cost


def answer_problem(topk: list, k: int, working: set) -> str | None:
    """Why ``topk`` is not k distinct ids of the working set, or ``None``."""
    if len(topk) != k:
        return f"returned {len(topk)} ids, expected {k}"
    if len(set(topk)) != k:
        return f"duplicate ids in {topk}"
    foreign = [item for item in topk if item not in working]
    if foreign:
        return f"ids {foreign} are not in the working set"
    return None


class QueryLog:
    """Answers and latencies of one run, keyed by place in the query list.

    A run answers its list in passes; a query's latency is the best over
    its passes, raw and normalized (see :func:`reference_s`).  A repeat
    must reproduce the query's first answer exactly.
    """

    def __init__(self) -> None:
        self.best_s: dict = {}
        self.best_norm_s: dict = {}
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, key, latency_s: float, ref_s: float, answer: tuple | None,
               problem: str | None) -> None:
        """``answer`` is ``(topk, cost, rounds)``; ``problem`` marks it failed."""
        self.attempted += 1
        if problem is None:
            seen = self.first.setdefault(key, answer)
            if seen != answer:
                problem = f"query {key} answered {answer}, earlier {seen}"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
            return
        norm_s = latency_s * REF_NOMINAL_S / ref_s
        self.best_s[key] = min(latency_s, self.best_s.get(key, latency_s))
        self.best_norm_s[key] = min(norm_s, self.best_norm_s.get(key, norm_s))

    def counts(self, keys: list, ndcg_of) -> dict:
        """Exact per-query means over the answered ``keys``, in list order."""
        answered = [(key, self.first[key]) for key in keys if key in self.first]
        n = len(answered) or 1
        return {
            "tmc_per_query": sum(a[1] for _, a in answered) / n,
            "rounds_per_query": sum(a[2] for _, a in answered) / n,
            "ndcg_at_k": sum(ndcg_of(key, a[0]) for key, a in answered) / n,
        }

    def latency_metrics(self, passes: list[tuple[float, float]], queries: int) -> dict:
        """p50/p90 over the queries' best latencies (ms) and the fastest
        pass's throughput, raw and normalized; ``passes`` holds each
        pass's ``(wall seconds, median reference seconds)``."""
        if len(self.best_s) < MIN_QUERIES and not self.failed:
            raise BenchError(f"only {len(self.best_s)} queries answered; "
                             f"p90 needs {MIN_QUERIES}")
        metrics = {}
        for suffix, best in (("", self.best_s), ("_norm", self.best_norm_s)):
            ms = [1000.0 * s for s in best.values()]
            metrics[f"latency_p50{suffix}_ms"] = statistics.median(ms) if ms else 0.0
            metrics[f"latency_p90{suffix}_ms"] = (
                statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else 0.0)
        metrics["queries_per_s"] = queries / min(wall for wall, _ in passes)
        metrics["queries_per_s_norm"] = max(
            queries * ref / (wall * REF_NOMINAL_S) for wall, ref in passes)
        return metrics


def median_setup(measure) -> float:
    """Median of :data:`SETUP_REPEATS` calls of ``measure()`` (seconds)."""
    return statistics.median(measure() for _ in range(SETUP_REPEATS))


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def wait_line(proc: subprocess.Popen, stream, marker: str, timeout: float = 60.0) -> str:
    """Read ``stream`` until a line containing ``marker``; return that line.

    ``proc`` is killed if the line has not come within ``timeout`` seconds.
    """
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        for line in stream:
            if marker in line:
                return line
    finally:
        watchdog.cancel()
    raise BenchError(f"child exited without printing {marker!r}")


def drain(stream) -> threading.Thread:
    """Read ``stream`` to its end in the background, so the child never blocks."""
    reader = threading.Thread(target=stream.read, daemon=True)
    reader.start()
    return reader


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
