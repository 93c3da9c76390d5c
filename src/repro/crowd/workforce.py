"""Individual workers: reliability, spammers, and answer provenance.

The paper models the crowd as exchangeable — every judgment is an i.i.d.
draw from a pair-specific distribution (§4 explicitly sets aside
per-worker consistency).  Real platforms are not like that, and the
paper's related work (Chen et al.'s worker reliability, Fan et al.'s
iCrowd) centres on exactly this gap.  This module provides the machinery
to study it *within* the confidence-aware framework:

* a :class:`Workforce` of workers with individual reliability, noise and
  spammer flags;
* a :class:`WorkforceOracle` that routes every microtask through a sampled
  worker and (optionally) logs who answered what; and
* :func:`estimate_worker_accuracy` — gold-standard-based quality scoring
  in the iCrowd spirit, usable to ban low-quality workers between queries.

The headline experiment built on top (``benchmarks/
bench_robustness_spammers.py``) shows the confidence machinery absorbing
worker heterogeneity: spammers inflate cost, not error rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import OracleError
from ..rng import make_rng
from .oracle import JudgmentOracle

__all__ = [
    "WorkerProfile",
    "Workforce",
    "WorkforceOracle",
    "AnswerRecord",
    "estimate_worker_accuracy",
]


@dataclass(frozen=True)
class WorkerProfile:
    """One worker's behavioural parameters.

    ``reliability ∈ [0, 1]`` scales how much of the true signal reaches the
    answer; ``noise_scale`` multiplies the worker's personal perception
    noise; a ``spammer`` ignores the question entirely and answers
    uniformly at random.
    """

    worker_id: int
    reliability: float = 1.0
    noise_scale: float = 1.0
    spammer: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.reliability <= 1.0:
            raise OracleError(
                f"reliability must be in [0, 1], got {self.reliability}"
            )
        if self.noise_scale < 0:
            raise OracleError(f"noise_scale must be >= 0, got {self.noise_scale}")


class Workforce:
    """A pool of workers microtasks are assigned from."""

    def __init__(self, profiles: list[WorkerProfile]) -> None:
        if not profiles:
            raise OracleError("a workforce needs at least one worker")
        ids = [p.worker_id for p in profiles]
        if len(set(ids)) != len(ids):
            raise OracleError("worker ids must be unique")
        self.profiles = list(profiles)
        self._by_id = {p.worker_id: p for p in profiles}

    def __len__(self) -> int:
        return len(self.profiles)

    def __getitem__(self, worker_id: int) -> WorkerProfile:
        try:
            return self._by_id[int(worker_id)]
        except KeyError:
            raise OracleError(f"unknown worker {worker_id}") from None

    @property
    def spammer_count(self) -> int:
        return sum(1 for p in self.profiles if p.spammer)

    def without(self, worker_ids: set[int]) -> "Workforce":
        """A workforce with the given workers banned."""
        kept = [p for p in self.profiles if p.worker_id not in worker_ids]
        return Workforce(kept)

    @classmethod
    def generate(
        cls,
        n_workers: int,
        seed: int | np.random.Generator = 0,
        spammer_rate: float = 0.0,
        reliability_range: tuple[float, float] = (0.7, 1.0),
        noise_range: tuple[float, float] = (0.8, 1.5),
    ) -> "Workforce":
        """Sample a heterogeneous workforce."""
        if n_workers < 1:
            raise OracleError(f"n_workers must be >= 1, got {n_workers}")
        if not 0.0 <= spammer_rate < 1.0:
            raise OracleError(f"spammer_rate must be in [0, 1), got {spammer_rate}")
        lo, hi = reliability_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise OracleError("reliability_range must satisfy 0 <= lo <= hi <= 1")
        rng = make_rng(seed)
        profiles = []
        for worker_id in range(n_workers):
            spammer = bool(rng.random() < spammer_rate)
            profiles.append(
                WorkerProfile(
                    worker_id=worker_id,
                    reliability=float(rng.uniform(lo, hi)),
                    noise_scale=float(rng.uniform(*noise_range)),
                    spammer=spammer,
                )
            )
        if all(p.spammer for p in profiles):
            # Guarantee at least one honest worker so queries can converge.
            profiles[0] = WorkerProfile(
                worker_id=0,
                reliability=float(rng.uniform(lo, hi)),
                noise_scale=float(rng.uniform(*noise_range)),
                spammer=False,
            )
        return cls(profiles)


@dataclass(frozen=True)
class AnswerRecord:
    """Provenance of one answered microtask."""

    worker_id: int
    left: int
    right: int
    value: float


class WorkforceOracle(JudgmentOracle):
    """Routes each microtask through a randomly assigned worker.

    A worker with reliability ``r`` answers
    ``v = r·(base draw) + noise_scale·σ_extra·z``; a spammer answers
    uniform noise over the base oracle's scale.  Judgments therefore stay
    zero-mean-correct in aggregate (honest workers' expectations keep the
    true sign) while individual answer quality varies — exactly the regime
    the confidence machinery must absorb.
    """

    def __init__(
        self,
        base: JudgmentOracle,
        workforce: Workforce,
        extra_noise: float = 0.5,
        spam_spread: float = 3.0,
        keep_log: bool = False,
    ) -> None:
        if extra_noise < 0:
            raise OracleError(f"extra_noise must be >= 0, got {extra_noise}")
        if spam_spread <= 0:
            raise OracleError(f"spam_spread must be > 0, got {spam_spread}")
        self._base = base
        self.workforce = workforce
        self._extra = extra_noise
        self._spam = spam_spread
        self.bounds = None  # worker transformations unbound the support
        self.log: list[AnswerRecord] | None = [] if keep_log else None
        self.answers_by_worker: dict[int, int] = {
            p.worker_id: 0 for p in workforce.profiles
        }
        self._reliability = np.asarray(
            [p.reliability for p in workforce.profiles]
        )
        self._noise_scale = np.asarray(
            [p.noise_scale for p in workforce.profiles]
        )
        self._spammer = np.asarray([p.spammer for p in workforce.profiles])
        self._ids = np.asarray([p.worker_id for p in workforce.profiles])

    def _transform(
        self,
        raw: np.ndarray,
        picks: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        reliability = self._reliability[picks]
        noise_scale = self._noise_scale[picks]
        spam = self._spammer[picks]
        out = reliability * raw + self._extra * noise_scale * rng.standard_normal(
            raw.shape
        )
        if spam.any():
            out[spam] = rng.uniform(-self._spam, self._spam, int(spam.sum()))
        return out

    def _account(self, picks: np.ndarray) -> None:
        unique, counts = np.unique(picks, return_counts=True)
        for pos, count in zip(unique, counts):
            self.answers_by_worker[int(self._ids[pos])] += int(count)

    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        raw = self._base.draw_pairs(left, right, size, rng)
        picks = rng.integers(0, len(self.workforce), size=raw.shape)
        values = self._transform(raw, picks, rng)
        self._account(picks.ravel())
        if self.log is not None:
            self.log.extend(
                map(
                    AnswerRecord,
                    self._ids[picks].ravel().tolist(),
                    np.repeat(np.asarray(left), size).tolist(),
                    np.repeat(np.asarray(right), size).tolist(),
                    values.ravel().tolist(),
                )
            )
        return values


def estimate_worker_accuracy(
    log: list[AnswerRecord],
    gold_order: dict[int, int],
    min_answers: int = 5,
) -> dict[int, float]:
    """Per-worker accuracy against gold-standard pairs (the iCrowd idea).

    ``gold_order`` maps item id → known rank (1 = best) for the pairs one
    is willing to treat as ground truth (e.g. a small verified subset).
    Only answers touching two gold items are scored; workers with fewer
    than ``min_answers`` scored answers are omitted (no evidence).
    """
    if min_answers < 1:
        raise ValueError(f"min_answers must be >= 1, got {min_answers}")
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    for record in log:
        if record.left not in gold_order or record.right not in gold_order:
            continue
        if record.value == 0.0:
            continue
        truth = 1.0 if gold_order[record.left] < gold_order[record.right] else -1.0
        totals[record.worker_id] = totals.get(record.worker_id, 0) + 1
        if np.sign(record.value) == truth:
            hits[record.worker_id] = hits.get(record.worker_id, 0) + 1
    return {
        worker: hits.get(worker, 0) / total
        for worker, total in totals.items()
        if total >= min_answers
    }
