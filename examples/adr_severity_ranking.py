"""Ranking adverse drug reactions (ADRs) by severity — the paper's medical
motivation (Gottlieb et al., JMIR 2015).

Medical crowdsourcing has two complications this example models
explicitly:

* judgments arrive on a coarse Likert scale (workers pick one of 8
  preference levels, not a continuous slider), handled by a
  record-database-free quantizing oracle; and
* a fraction of workers answer carelessly, handled by the contamination
  noise model — the confidence machinery must absorb them by buying more
  judgments, not by getting confidently wrong.

Run:  python examples/adr_severity_ranking.py
"""

import numpy as np

from repro import ComparisonConfig, CrowdSession, SPRConfig, spr_topk
from repro.crowd.oracle import JudgmentOracle, LatentScoreOracle
from repro.crowd.workers import CarelessWorkerNoise

# Severity on an arbitrary latent scale (higher = more severe).
ADRS = {
    "anaphylaxis": 9.6,
    "liver failure": 9.4,
    "cardiac arrhythmia": 8.8,
    "seizure": 8.5,
    "internal bleeding": 8.3,
    "severe depression": 7.6,
    "kidney impairment": 7.4,
    "persistent vomiting": 6.2,
    "fainting": 5.8,
    "migraine": 4.9,
    "insomnia": 3.8,
    "skin rash": 3.2,
    "dry mouth": 2.1,
    "mild nausea": 1.8,
    "drowsiness": 1.5,
}


class LikertQuantizedOracle(JudgmentOracle):
    """Wraps a continuous oracle and snaps answers to an 8-point scale."""

    LEVELS = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float) / 7.0

    def __init__(self, base: JudgmentOracle, scale: float) -> None:
        self._base = base
        self._scale = scale
        self.bounds = (-1.0, 1.0)

    def _quantize(self, raw: np.ndarray) -> np.ndarray:
        clipped = np.clip(raw / self._scale, -1.0, 1.0)
        idx = np.abs(clipped[..., None] - self.LEVELS).argmin(axis=-1)
        return self.LEVELS[idx]

    def draw_pairs(self, left, right, size, rng):
        return self._quantize(self._base.draw_pairs(left, right, size, rng))


def main() -> None:
    names = list(ADRS)
    severity = np.array([ADRS[name] for name in names])
    workers = CarelessWorkerNoise(sigma=1.6, careless_rate=0.15, spread=6.0)
    oracle = LikertQuantizedOracle(
        LatentScoreOracle(severity, workers), scale=8.0
    )

    config = ComparisonConfig(confidence=0.95, budget=3000, min_workload=30)
    session = CrowdSession(oracle, config, seed=3)
    result = spr_topk(
        session, list(range(len(names))), k=5, config=SPRConfig(comparison=config)
    )

    truth = sorted(names, key=lambda n: -ADRS[n])[:5]
    print("5 most severe ADRs (crowd-judged, 15% careless workers):")
    for position, item in enumerate(result.topk, start=1):
        marker = "✓" if names[item] in truth else "✗"
        print(f"  {position}. {names[item]:22s} {marker}")
    print(f"\ncost: {session.total_cost:,} Likert microtasks, "
          f"{session.total_rounds} batch rounds")
    print("every pairwise verdict carries a 95% confidence guarantee — the "
          "careless workers only made the query more expensive.")


if __name__ == "__main__":
    main()
