"""What one comparison process ``COMP(o_i, o_j)`` concluded (§3.1).

A comparison progressively buys preference judgments for a pair until its
sequential tester reaches a verdict at confidence ``1 - α`` or the
per-pair budget ``B`` runs out (tie).  Microtasks are published in
batches of ``η`` (the latency model of §5.5), but the stopping rule is
evaluated after every sample inside a batch, so the monetary cost is
that of the strictly sequential Algorithm 1.  Every comparison, single
or in a parallel group, races through :meth:`CrowdSession.compare_many
<repro.crowd.session.CrowdSession.compare_many>`; a
:class:`ComparisonRecord` is what it reports for each pair, and
:class:`GroupRecords` holds a whole group's records as columns.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .outcomes import Outcome

__all__ = ["ComparisonRecord", "GroupRecords"]


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


class GroupRecords(Sequence):
    """What a comparison group concluded, one column per record field.

    Element ``r`` of every column describes occurrence ``r`` of the
    group, in input order: ``lefts`` and ``rights`` are its item ids,
    ``codes`` its verdict (``+1`` left wins, ``-1`` right wins, ``0``
    tie), then its ``workloads``, ``costs``, ``rounds``, ``means`` (NaN
    for an empty workload) and ``stds``.  Wide groups' readers take the
    columns; indexing or iterating builds the
    :class:`ComparisonRecord` list, once, with
    :meth:`ComparisonRecord.from_arrays`.  A group equals the list of
    its records.
    """

    __slots__ = (
        "lefts", "rights", "codes", "workloads", "costs", "rounds", "means",
        "stds", "_records",
    )

    def __init__(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        codes: np.ndarray,
        *,
        workloads: np.ndarray,
        costs: np.ndarray,
        rounds: np.ndarray,
        means: np.ndarray,
        stds: np.ndarray,
    ) -> None:
        self.lefts, self.rights, self.codes = lefts, rights, codes
        self.workloads, self.costs, self.rounds = workloads, costs, rounds
        self.means, self.stds = means, stds
        self._records: list[ComparisonRecord] | None = None

    def _list(self) -> list[ComparisonRecord]:
        if self._records is None:
            self._records = ComparisonRecord.from_arrays(
                self.lefts,
                self.rights,
                self.codes,
                workloads=self.workloads,
                costs=self.costs,
                rounds=self.rounds,
                means=self.means,
                stds=self.stds,
            )
        return self._records

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GroupRecords):
            other = other._list()
        return self._list() == other if isinstance(other, list) else NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GroupRecords({self._list()!r})"
