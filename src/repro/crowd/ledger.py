"""Cost and latency accounting.

The two performance factors of §6.2 are tracked by separate ledgers:

* :class:`CostLedger` — the total monetary cost (TMC): one unit per
  microtask answered by the crowd.
* :class:`LatencyLedger` — query latency measured in batch-distribution
  *rounds* (§5.5): microtasks are published in batches of η, comparisons
  running in parallel overlap their rounds, sequential phases add.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ..errors import BudgetExhaustedError

__all__ = ["CostLedger", "LatencyLedger"]

logger = logging.getLogger(__name__)


@dataclass
class CostLedger:
    """Counts microtasks (monetary cost) and comparison processes."""

    microtasks: int = 0
    comparisons: int = 0
    ceiling: int | None = None

    def charge(self, n: int) -> None:
        """Charge ``n`` microtasks; raises if a hard ceiling is installed
        and crossed."""
        if n < 0:
            raise ValueError(f"cannot charge {n} microtasks")
        self.microtasks += n
        if self.ceiling is not None and self.microtasks > self.ceiling:
            logger.warning(
                "budget exhausted: total monetary cost %d crossed the session "
                "ceiling %d", self.microtasks, self.ceiling,
            )
            raise BudgetExhaustedError(
                f"total monetary cost {self.microtasks} exceeded the "
                f"session ceiling {self.ceiling}"
            )

    def begin_comparisons(self, n: int) -> None:
        """Record that ``n`` comparison processes started at once: a
        racing group opens with one ledger update for all its pairs."""
        if n < 0:
            raise ValueError(f"cannot begin {n} comparisons")
        self.comparisons += n

    @property
    def remaining(self) -> int | None:
        """Microtasks left under the ceiling (None when uncapped)."""
        if self.ceiling is None:
            return None
        return max(self.ceiling - self.microtasks, 0)

    def reset(self) -> None:
        self.microtasks = 0
        self.comparisons = 0


@dataclass
class LatencyLedger:
    """Counts batch-distribution rounds."""

    rounds: int = 0

    def add(self, rounds: int) -> None:
        """Account ``rounds`` sequential rounds."""
        if rounds < 0:
            raise ValueError(f"cannot add {rounds} rounds")
        self.rounds += rounds

    def add_parallel(self, group_rounds: list[int] | tuple[int, ...]) -> None:
        """Account a group of comparisons that ran simultaneously.

        The group costs as many rounds as its slowest member.
        """
        if group_rounds:
            self.add(max(group_rounds))

    def reset(self) -> None:
        self.rounds = 0
