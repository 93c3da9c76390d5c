"""CrowdBT baseline — Chen et al., WSDM 2013 (§6.5 usage).

A *non-confidence-aware* heuristic: spend a fixed budget on pairwise binary
votes over random pairs, then fit Bradley-Terry-Luce scores by maximum
likelihood (the paper optimizes with BFGS, 100 iterations) and return the
top-k by fitted score.  The paper budget-matches it to SPR's measured TMC,
which is how the experiment harness calls it.

The worker-quality extension of the original CrowdBT is out of scope here —
the paper's simulated crowd has no per-worker identity (§4: answers are
independent across comparisons), so the plain BTL likelihood is the model
actually exercised.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..core.topk import top_k_indices
from ..crowd.oracle import BinaryOracle
from ..errors import AlgorithmError
from .base import TopKOutcome, measured, validate_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = ["crowdbt_topk", "fit_btl_scores"]


def fit_btl_scores(
    win_counts: np.ndarray,
    *,
    regularization: float = 0.05,
    max_iter: int = 100,
) -> np.ndarray:
    """Maximum-likelihood BTL scores from a win-count matrix.

    ``win_counts[i, j]`` is how often item ``i`` beat item ``j``.  The
    (ridge-regularized) negative log-likelihood is minimized with the
    quasi-Newton family the paper cites (Nocedal & Wright); scores are
    translation-invariant, the regularizer pins the gauge.
    """
    # No query door fits BTL scores, so only this baseline pays for
    # loading scipy.optimize.
    from scipy import optimize

    counts = np.asarray(win_counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise AlgorithmError("win_counts must be a square matrix")
    if np.any(counts < 0):
        raise AlgorithmError("win_counts must be non-negative")
    n = counts.shape[0]

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        diff = theta[:, None] - theta[None, :]
        # -log sigma(d) = log(1 + e^{-d}), computed stably.
        log_sig = -np.logaddexp(0.0, -diff)
        nll = -float(np.sum(counts * log_sig))
        nll += regularization * float(theta @ theta)
        sig = 1.0 / (1.0 + np.exp(-diff))
        residual = counts * (1.0 - sig)
        grad = -(residual.sum(axis=1) - residual.sum(axis=0))
        grad += 2.0 * regularization * theta
        return nll, grad

    result = optimize.minimize(
        objective,
        np.zeros(n),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter},
    )
    return np.asarray(result.x, dtype=np.float64)


def crowdbt_topk(
    session: "CrowdSession",
    item_ids: list[int],
    k: int,
    *,
    budget: int,
    regularization: float = 0.05,
    max_iter: int = 100,
) -> TopKOutcome:
    """Answer the top-k query with budget-matched CrowdBT.

    ``budget`` binary votes are spread over uniformly random item pairs
    (bought in vectorized batches); the BTL fit then ranks the items.
    Latency: all votes are mutually independent microtasks, so the whole
    spend fits in ``ceil(votes_per_pair / η)`` parallel rounds — one batch
    round in practice.
    """
    ids = validate_query(item_ids, k)
    n = len(ids)
    if budget < 1:
        raise AlgorithmError(f"budget must be >= 1, got {budget}")
    before = session.spent()

    voting = session.fork(oracle=BinaryOracle(session.oracle))
    rng = voting.rng

    counts = np.zeros((n, n), dtype=np.float64)
    remaining = budget
    chunk_pairs = 8192
    id_array = np.asarray(ids, dtype=np.int64)
    while remaining > 0:
        m = min(chunk_pairs, remaining)
        a = rng.integers(0, n, size=m)
        shift = rng.integers(1, n, size=m)
        b = (a + shift) % n  # distinct second endpoint, uniform over pairs
        votes = voting.oracle.draw_pairs(id_array[a], id_array[b], 1, rng)[:, 0]
        winners = np.where(votes > 0, a, b)
        losers = np.where(votes > 0, b, a)
        np.add.at(counts, (winners, losers), 1.0)
        remaining -= m
    session.charge_cost(budget)
    session.charge_rounds(
        max(1, math.ceil(budget / max(n, 1) / session.config.batch_size))
    )

    theta = fit_btl_scores(
        counts, regularization=regularization, max_iter=max_iter
    )
    topk = [ids[int(pos)] for pos in top_k_indices(theta, k)]
    return measured(
        "crowdbt",
        session,
        topk,
        before,
        extras={"votes": budget, "theta_spread": float(theta.max() - theta.min())},
    )
