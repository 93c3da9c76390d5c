"""Cached Student-t quantiles.

Sequential testers consult ``t_{α/2, n-1}`` after *every* sample, so the
quantile function is on the hottest path of the whole library.  scipy's
inverse t CDF, ``scipy.special.stdtrit`` (the function ``scipy.stats.t.ppf``
evaluates, bit for bit), costs microseconds per call; we precompute vectors
of quantiles per ``α`` and grow them geometrically, making the common lookup
an array index.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import stdtrit

__all__ = ["t_quantile", "t_quantiles"]

# One cached quantile vector per alpha; guarded for thread safety because
# experiment runners may fan out across threads.
_CACHE: dict[float, np.ndarray] = {}
_LOCK = threading.Lock()
_INITIAL_SIZE = 4096


def _table_for(alpha: float, min_df: int) -> np.ndarray:
    """Return the cached quantile vector for ``alpha`` covering ``min_df``.

    Index ``df`` of the vector holds ``t_{α/2, df}`` (two-sided quantile,
    i.e. the ``1 - α/2`` point of the t distribution with ``df`` degrees of
    freedom).  Index 0 is NaN — a variance needs at least 2 samples.
    """
    key = float(alpha)
    table = _CACHE.get(key)
    if table is not None and len(table) > min_df:
        return table
    with _LOCK:
        table = _CACHE.get(key)
        if table is None or len(table) <= min_df:
            size = max(_INITIAL_SIZE, 2 * (min_df + 1))
            dfs = np.arange(1, size, dtype=np.float64)
            values = stdtrit(dfs, 1.0 - key / 2.0)
            table = np.concatenate(([np.nan], values))
            _CACHE[key] = table
    return table


def t_quantile(alpha: float, df: int) -> float:
    """Two-sided Student-t quantile ``t_{α/2, df}``.

    This is the positive value such that a t-distributed variable with
    ``df`` degrees of freedom exceeds it with probability ``α/2``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return float(_table_for(alpha, df)[df])


def t_quantiles(alpha: float, max_df: int) -> np.ndarray:
    """Vector of ``t_{α/2, df}`` for ``df = 0 .. max_df`` (index 0 is NaN).

    The returned array is a read-only view of the shared cache; callers
    index it with a degrees-of-freedom array for vectorized stopping rules.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if max_df < 1:
        raise ValueError(f"max_df must be >= 1, got {max_df}")
    table = _table_for(alpha, max_df)
    view = table[: max_df + 1]
    view.flags.writeable = False
    return view
