"""Synthetic IMDb-shaped dataset.

The paper's IMDb slice holds the 1,225 movies with ≥ 100,000 votes, each
carrying a vote histogram over the 1–10 rating scale.  A pairwise judgment
is simulated by sampling one rating from each movie's histogram and
answering the difference; the ground-truth order Ω comes from the IMDb
weighted-rank formula

``WR = n/(n+K) · μ + K/(n+K) · C``     (K = 25,000, C = 6.9)

with ``μ`` the mean vote and ``n`` the vote count.

This generator rebuilds that structure from a latent model: every movie
gets a latent quality (popular, heavily-voted movies concentrate around
7 ± 0.8 on the 10-point scale) and a per-movie taste dispersion; its public
histogram is the *empirical* distribution of ``n`` multinomial votes, so
small residual sampling jitter survives into the oracle exactly as it does
in the real vote tables.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from ..core.items import ItemSet
from ..crowd.oracle import HistogramOracle
from ..rng import make_rng
from .base import Dataset

__all__ = ["make_imdb", "IMDB_K", "IMDB_C"]

#: Constants of the IMDb weighted-rank formula, as stated in §6.1.
IMDB_K = 25_000.0
IMDB_C = 6.9

_SUPPORT = np.arange(1.0, 11.0)  # the 1..10 star scale


def _discretized_normal_pmf(mean: float, std: float, support: np.ndarray) -> np.ndarray:
    """PMF over ``support`` from binning a normal — the taste model.

    ``ndtr`` of the standardized edges is what ``scipy.stats.norm.cdf(edges,
    mean, std)`` evaluates, bit for bit.
    """
    edges = np.concatenate(([-np.inf], (support[:-1] + support[1:]) / 2.0, [np.inf]))
    cdf = ndtr((edges - mean) / std)
    pmf = np.diff(cdf)
    return pmf / pmf.sum()


def make_imdb(
    seed: int | np.random.Generator = 0,
    n_items: int = 1225,
    min_votes: int = 100_000,
    max_votes: int = 2_000_000,
) -> Dataset:
    """Build the synthetic IMDb dataset.

    Parameters mirror the paper's filtering criterion (≥ 100k votes per
    movie).  The generator is deterministic given ``seed``.
    """
    if n_items < 2:
        raise ValueError(f"need at least 2 movies, got {n_items}")
    if not 1 <= min_votes <= max_votes:
        raise ValueError("vote bounds must satisfy 1 <= min_votes <= max_votes")
    rng = make_rng(seed)

    quality = np.clip(rng.normal(7.0, 0.8, size=n_items), 1.5, 9.7)
    dispersion = rng.uniform(1.2, 2.2, size=n_items)
    votes = np.exp(
        rng.uniform(np.log(min_votes), np.log(max_votes), size=n_items)
    ).astype(np.int64)

    pmfs: dict[int, np.ndarray] = {}
    means = np.empty(n_items)
    for item in range(n_items):
        model_pmf = _discretized_normal_pmf(quality[item], dispersion[item], _SUPPORT)
        counts = rng.multinomial(votes[item], model_pmf)
        empirical = counts / counts.sum()
        pmfs[item] = empirical
        means[item] = empirical @ _SUPPORT

    weight = votes / (votes + IMDB_K)
    weighted_rank = weight * means + (1.0 - weight) * IMDB_C

    items = ItemSet(
        ids=np.arange(n_items),
        scores=weighted_rank,
        labels=tuple(f"movie {i:04d}" for i in range(n_items)),
    )
    oracle = HistogramOracle(_SUPPORT, pmfs)
    return Dataset(
        name="imdb",
        items=items,
        oracle=oracle,
        description=(
            f"synthetic IMDb: {n_items} movies, vote histograms on 1..10, "
            f"ground truth = weighted rank (K={IMDB_K:.0f}, C={IMDB_C})"
        ),
    )
