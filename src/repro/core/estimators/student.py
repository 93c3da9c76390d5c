"""Student's t sequential tester — Algorithm 1 of the paper.

After each sample the ``1 - α`` confidence interval

``[μ̄ − t_{α/2, n-1}·S/√n,  μ̄ + t_{α/2, n-1}·S/√n]``

is checked against the neutral value 0; the comparison concludes as soon as
the interval excludes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...stats.tdist import t_quantiles
from .base import SequentialTester

__all__ = ["StudentTester"]


@dataclass
class StudentTester(SequentialTester):
    """Sequential two-sided t test of ``μ = 0`` at confidence ``1 - α``."""

    def decision_codes(
        self, n: np.ndarray, mean: np.ndarray, s2: np.ndarray
    ) -> np.ndarray:
        # The arithmetic of sample_variance and of the t interval, element
        # for element, written into one scratch array: the racing pool
        # calls this every round, and at ~600 cells a call the temporaries
        # and the clip cost more than the math.
        n = np.asarray(n)
        mean = np.asarray(mean, dtype=np.float64)
        nf = n.astype(np.float64)
        max_df = int(np.max(n)) - 1 if n.size else 1
        tq = t_quantiles(self.alpha, max(max_df, 1))
        margin = nf * mean
        margin *= mean
        np.subtract(s2, margin, out=margin)
        # n - 1 >= 1 wherever the variance is kept; the n < 2 cells are
        # overwritten with NaN below, so clamping avoids a 0/0 there.
        margin /= np.maximum(nf - 1.0, 1.0)
        np.maximum(margin, 0.0, out=margin)
        np.copyto(margin, np.nan, where=n < 2)
        margin /= nf
        np.sqrt(margin, out=margin)
        margin *= tq[np.maximum(n - 1, 0).astype(np.intp, copy=False)]
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
