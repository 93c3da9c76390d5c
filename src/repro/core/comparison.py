"""What one comparison process ``COMP(o_i, o_j)`` concluded (§3.1).

A comparison progressively buys preference judgments for a pair until its
sequential tester reaches a verdict at confidence ``1 - α`` or the
per-pair budget ``B`` runs out (tie).  Microtasks are published in
batches of ``η`` (the latency model of §5.5), but the stopping rule is
evaluated after every sample inside a batch, so the monetary cost is
that of the strictly sequential Algorithm 1.  Every comparison, single
or in a parallel group, races through :meth:`CrowdSession.compare_many
<repro.crowd.session.CrowdSession.compare_many>`; a
:class:`ComparisonRecord` is what it reports for each pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .outcomes import Outcome

__all__ = ["ComparisonRecord"]


@dataclass(frozen=True)
class ComparisonRecord:
    """Everything a comparison process concluded and consumed.

    Attributes
    ----------
    left, right:
        The compared item ids, in the orientation of the call.
    outcome:
        :class:`Outcome` of the process (``LEFT``/``RIGHT``/``TIE``).
    workload:
        Total samples backing the verdict, ``w_{i,j}`` — including replayed
        cached judgments.
    cost:
        *New* microtasks purchased by this call (0 when fully cached).
    rounds:
        Batch-distribution rounds this call occupied the crowd for.
    mean, std:
        Sample moments of the judgments backing the verdict
        (std is NaN below 2 samples).
    """

    left: int
    right: int
    outcome: Outcome
    workload: int
    cost: int
    rounds: int
    mean: float
    std: float

    @property
    def winner(self) -> int | None:
        """The preferred item id, or ``None`` on a tie."""
        if self.outcome is Outcome.LEFT:
            return self.left
        if self.outcome is Outcome.RIGHT:
            return self.right
        return None

    @property
    def loser(self) -> int | None:
        """The rejected item id, or ``None`` on a tie."""
        if self.outcome is Outcome.LEFT:
            return self.right
        if self.outcome is Outcome.RIGHT:
            return self.left
        return None

    @property
    def from_cache(self) -> bool:
        """Whether the verdict came entirely from replayed judgments."""
        return self.cost == 0 and self.workload > 0

    @classmethod
    def from_arrays(
        cls,
        lefts: np.ndarray,
        rights: np.ndarray,
        codes: np.ndarray,
        *,
        workloads: np.ndarray,
        costs: np.ndarray,
        rounds: np.ndarray,
        means: np.ndarray,
        stds: np.ndarray,
    ) -> "list[ComparisonRecord]":
        """Build a whole round's records in one pass over parallel arrays.

        Element ``r`` of every input describes one record: ``codes`` are
        the racing pool's decision codes (``+1``/``-1``/``0``) in the
        orientation of ``(lefts[r], rights[r])``, and an empty workload's
        mean reads NaN.  The per-record arithmetic (orientation flips,
        moment math) is expected to have happened in array form already,
        which is the point: the only remaining per-record work is
        constructing the frozen dataclass itself.
        """
        nan = math.nan
        left_outcome, right_outcome, tie = Outcome.LEFT, Outcome.RIGHT, Outcome.TIE
        return [
            cls(
                left=left,
                right=right,
                outcome=(
                    tie if code == 0 else left_outcome if code > 0 else right_outcome
                ),
                workload=workload,
                cost=cost,
                rounds=spent_rounds,
                mean=mean if workload else nan,
                std=std,
            )
            for left, right, code, workload, cost, spent_rounds, mean, std in zip(
                lefts.tolist(),
                rights.tolist(),
                codes.tolist(),
                workloads.tolist(),
                costs.tolist(),
                rounds.tolist(),
                means.tolist(),
                stds.tolist(),
            )
        ]
