"""Persisting crowd judgments across queries — pay for each microtask once.

§5.3 of the paper: all human feedback is stored and reusable.  This
example runs a top-3 query, persists the judgment bags, then answers a
*top-5* query in a "new session" (think: tomorrow's process) — every pair
already judged replays for free; only genuinely new evidence is bought.

Run:  python examples/resume_with_cache.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ComparisonConfig, CrowdSession, LatentScoreOracle, spr_topk
from repro.crowd.workers import GaussianNoise
from repro.persistence import load_cache, save_cache

SCORES = np.array([3.1, 7.4, 5.2, 9.0, 1.8, 6.6, 8.2, 4.4, 2.9, 7.9, 5.8, 6.1])


def fresh_session(seed: int) -> CrowdSession:
    oracle = LatentScoreOracle(SCORES, GaussianNoise(1.0))
    return CrowdSession(
        oracle,
        ComparisonConfig(confidence=0.95, budget=500, min_workload=10),
        seed=seed,
    )


def main() -> None:
    state_file = Path(tempfile.mkdtemp()) / "judgments.npz"

    # Day 1: top-3 query.
    day1 = fresh_session(seed=1)
    result1 = spr_topk(day1, list(range(len(SCORES))), k=3)
    print(f"day 1: top-3 = {list(result1.topk)}, "
          f"cost = {day1.total_cost:,} microtasks")
    save_cache(day1.cache, state_file)
    print(f"        persisted {day1.cache.total_samples:,} judgments "
          f"({day1.cache.pair_count} pairs) to {state_file.name}")

    # Day 2, new process: top-5 over the same items, warm-started.
    day2 = fresh_session(seed=2)
    day2.cache = load_cache(state_file)
    result2 = spr_topk(day2, list(range(len(SCORES))), k=5)
    print(f"day 2: top-5 = {list(result2.topk)}, "
          f"cost = {day2.total_cost:,} new microtasks")

    # Control: the same top-5 query cold.
    cold = fresh_session(seed=2)
    spr_topk(cold, list(range(len(SCORES))), k=5)
    saved = cold.total_cost - day2.total_cost
    print(f"cold-start control cost = {cold.total_cost:,} — warm start "
          f"saved {saved:,} microtasks ({saved / cold.total_cost:.0%})")


if __name__ == "__main__":
    main()
