#!/usr/bin/env python
"""Time the sequential top-k methods, which no benchmark workload runs.

``fullsort`` and ``heapsort`` buy one comparison at a time, each a
one-pair racing group.  For each method this runs seeded jester queries
(seeds 0, 1, ...; k=10; ``fullsort`` over the first 60 items, ``heapsort``
over all 100) one after another in this process and prints their total
wall seconds, comparisons, rounds and judgment-cache drains (calls of
``JudgmentCache._drain``, which folds queued racing rounds into the
cache).  Comparisons and rounds are deterministic; seconds depend on the
host, so compare two trees by alternating runs on one machine.

Usage::

    PYTHONPATH=src python scripts/time_sequential.py [--queries 5]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import load_dataset  # noqa: E402
from repro.algorithms import ALGORITHMS  # noqa: E402
from repro.core.cache import JudgmentCache  # noqa: E402

#: method -> how many of jester's items each query ranks
METHODS = {"fullsort": 60, "heapsort": 100}
K = 10


def count_drains() -> list[int]:
    """Count every ``JudgmentCache._drain`` call from here on."""
    calls = [0]
    drain = JudgmentCache._drain

    def counting(cache):
        calls[0] += 1
        return drain(cache)

    JudgmentCache._drain = counting
    return calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--queries", type=int, default=5, help="seeded queries per method"
    )
    args = parser.parse_args()
    if args.queries < 1:
        parser.error("--queries must be at least 1")
    dataset = load_dataset("jester")
    ids = dataset.items.ids.tolist()
    drains = count_drains()
    print(f"{'method':<10}{'items':>6}{'queries':>8}{'seconds':>9}"
          f"{'comparisons':>12}{'rounds':>8}{'drains':>8}")
    for method, n_items in METHODS.items():
        drains[0] = comparisons = rounds = 0
        seconds = 0.0
        for seed in range(args.queries):
            session = dataset.session(seed=seed)
            start = time.perf_counter()
            ALGORITHMS[method](session, ids[:n_items], k=K)
            seconds += time.perf_counter() - start
            comparisons += session.cost.comparisons
            rounds += session.total_rounds
        print(f"{method:<10}{n_items:>6}{args.queries:>8}{seconds:>9.2f}"
              f"{comparisons:>12,}{rounds:>8,}{drains[0]:>8,}")


if __name__ == "__main__":
    main()
