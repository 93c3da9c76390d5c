"""Student's t sequential tester — Algorithm 1 of the paper.

After each sample the ``1 - α`` confidence interval

``[μ̄ − t_{α/2, n-1}·S/√n,  μ̄ + t_{α/2, n-1}·S/√n]``

is checked against the neutral value 0; the comparison concludes as soon as
the interval excludes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...stats.tdist import t_quantiles
from .base import SequentialTester

__all__ = ["StudentTester"]

#: Sample counts the per-n tables first cover; they grow past it on demand.
_TABLE_SIZE = 512

#: ``alpha -> (float n, n - 1, t_{α/2, n-1})`` by sample count ``n``,
#: shared by every tester of that confidence.
_TABLES: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _cell_tables(alpha: float, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample-count lookup tables covering ``n < size`` (at least).

    Index ``n`` holds ``float(n)``, the variance's divisor ``n - 1`` and
    the quantile ``t_{α/2, n-1}``.  Below two samples there is no
    variance, so the divisor and the quantile are NaN there.
    """
    tables = _TABLES.get(alpha)
    if tables is None or tables[0].size < size:
        size = max(size, _TABLE_SIZE)
        counts = np.arange(size, dtype=np.float64)
        divisors = counts - 1.0
        divisors[:2] = np.nan
        quantiles = np.concatenate(([np.nan], t_quantiles(alpha, size - 1)[:-1]))
        tables = _TABLES[alpha] = (counts, divisors, quantiles)
    return tables


@dataclass
class StudentTester(SequentialTester):
    """Sequential two-sided t test of ``μ = 0`` at confidence ``1 - α``."""

    _tables: tuple = field(default=(), init=False, repr=False, compare=False)

    def decision_codes(
        self, n: np.ndarray, mean: np.ndarray, s2: np.ndarray
    ) -> np.ndarray:
        # The arithmetic of sample_variance and of the t interval, element
        # for element and in the same order, written into one scratch
        # array: the racing pool calls this every round, so the casts, the
        # clamp and the quantile index are looked up by n in tables
        # instead.  The NaN divisor below n = 2 makes those cells' margin
        # NaN, as sample_variance's NaN would, before n = 0 could divide.
        try:
            counts, divisors, quantiles = self._tables
            nf = counts[n]
        except (ValueError, IndexError):  # first call, or n past the tables
            size = 2 * int(np.max(n)) + 2 if np.size(n) else 0
            counts, divisors, quantiles = self._tables = _cell_tables(
                self.alpha, size
            )
            nf = counts[n]
        margin = nf * mean
        margin *= mean
        np.subtract(s2, margin, out=margin)
        margin /= divisors[n]
        np.maximum(margin, 0.0, out=margin)
        margin /= nf
        np.sqrt(margin, out=margin)
        margin *= quantiles[n]
        # A NaN margin (n < 2) fails both comparisons, and a finite margin
        # is never negative, so at most one of them holds per cell.
        codes = (mean - margin > 0.0).view(np.int8)
        codes -= mean + margin < 0.0
        return codes

    def interval(self) -> tuple[float, float]:
        """Current confidence interval for the preference mean.

        Mostly useful for inspection and testing; requires >= 2 samples.
        """
        st = self.state
        if st.n < 2:
            raise ValueError("need at least 2 samples for an interval")
        tq = t_quantiles(self.alpha, st.n - 1)[st.n - 1]
        margin = tq * st.std / np.sqrt(st.n)
        return st.mean - margin, st.mean + margin
