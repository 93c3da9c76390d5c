"""Interval-based partial ranking — the paper's first §7 follow-up.

The core comparison process stops the moment its interval excludes the
neutral point.  That is optimal for a single verdict but wasteful when the
same bags must later *order* the winners: tighter intervals can rank many
pairs for free.  This extension:

1. keeps comparing each candidate with the shared reference until a target
   interval half-width (or an extra budget) is reached, and
2. infers ``o_i ≻ o_j`` whenever their confidence intervals for
   ``μ_{·, r}`` are disjoint — a conclusion at joint confidence
   ``(1 − α)²`` without a single direct ``(o_i, o_j)`` microtask.

The result is a :class:`PartialOrder`: a DAG over the candidates exposing
dominance tests, topological layers, and the pairs a full ranking would
still need to resolve directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.estimators import make_tester
from ..errors import AlgorithmError
from ..stats.tdist import t_quantile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = ["IntervalEstimate", "PartialOrder", "interval_partial_order"]


@dataclass(frozen=True)
class IntervalEstimate:
    """A ``1 − α`` confidence interval for one item's mean vs the reference."""

    item: int
    lower: float
    upper: float
    n: int

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.upper + self.lower) / 2.0

    def separated_from(self, other: "IntervalEstimate") -> bool:
        """Whether the two intervals are disjoint (order inferable)."""
        return self.lower > other.upper or other.lower > self.upper


class PartialOrder:
    """Dominance relations inferred from pairwise-disjoint intervals."""

    def __init__(self, estimates: list[IntervalEstimate]) -> None:
        if len({e.item for e in estimates}) != len(estimates):
            raise AlgorithmError("duplicate items in the interval set")
        self.estimates = {e.item: e for e in estimates}

    def dominates(self, i: int, j: int) -> bool:
        """Whether ``o_i ≻ o_j`` is inferable from the intervals."""
        a, b = self.estimates[int(i)], self.estimates[int(j)]
        return a.lower > b.upper

    def unresolved_pairs(self) -> list[tuple[int, int]]:
        """Pairs whose intervals overlap — a total order still needs them."""
        items = sorted(self.estimates)
        return [
            (items[a], items[b])
            for a in range(len(items))
            for b in range(a + 1, len(items))
            if not self.estimates[items[a]].separated_from(self.estimates[items[b]])
        ]

    def layers(self) -> list[list[int]]:
        """Topological layers, best first.

        Layer ``t`` holds the items dominated only by items in earlier
        layers; items within a layer are mutually unresolved (directly or
        through chains of overlap).
        """
        remaining = set(self.estimates)
        layers: list[list[int]] = []
        while remaining:
            front = [
                item
                for item in remaining
                if not any(
                    self.dominates(other, item)
                    for other in remaining
                    if other != item
                )
            ]
            if not front:  # cannot happen: dominance is acyclic by construction
                raise AssertionError("interval dominance produced a cycle")
            layers.append(sorted(front, key=lambda i: -self.estimates[i].midpoint))
            remaining -= set(front)
        return layers

    def is_total(self) -> bool:
        """Whether the intervals already induce a full ranking."""
        return not self.unresolved_pairs()

    def best_effort_ranking(self) -> list[int]:
        """A total order consistent with the partial order (midpoint ties)."""
        return [item for layer in self.layers() for item in layer]


def interval_partial_order(
    session: "CrowdSession",
    candidate_ids: list[int],
    reference: int,
    *,
    target_halfwidth: float | None = None,
    extra_budget: int = 200,
) -> PartialOrder:
    """Tighten every candidate's interval vs ``reference``, then order them.

    Each candidate's bag against the reference is extended by up to
    ``extra_budget`` additional microtasks — or until the Student-t
    interval's half-width drops below ``target_halfwidth`` when given.
    Candidates are compared to the reference, never to each other.
    """
    reference = int(reference)
    ids = [int(i) for i in candidate_ids]
    if reference in ids:
        raise AlgorithmError("the reference cannot be among the candidates")
    if extra_budget < 0:
        raise AlgorithmError("extra_budget must be >= 0")
    if target_halfwidth is not None and target_halfwidth <= 0:
        raise AlgorithmError("target_halfwidth must be positive")

    alpha = session.config.alpha
    batch = session.config.batch_size
    estimates: list[IntervalEstimate] = []
    group_rounds: list[int] = []
    for item in ids:
        tester = make_tester(
            session.config.with_(estimator="student"),
            session.oracle.value_range,
        )
        cached = session.cache.bag(item, reference)
        if cached.size:
            tester.push_many(cached)
        spent = 0
        rounds = 0
        while spent < extra_budget:
            if tester.n >= max(2, session.config.min_workload):
                half = (
                    t_quantile(alpha, tester.n - 1)
                    * tester.state.std
                    / math.sqrt(tester.n)
                )
                if target_halfwidth is not None and half <= target_halfwidth:
                    break
            chunk = min(batch, extra_budget - spent)
            values = session.oracle.draw(item, reference, chunk, session.rng)
            tester.push_many(values)
            session.cache.append(item, reference, values)
            spent += chunk
            rounds += 1
        session.charge_cost(spent)
        group_rounds.append(rounds)

        n = tester.n
        if n < 2:
            raise AlgorithmError(
                f"item {item} has fewer than 2 judgments against the reference"
            )
        half = t_quantile(alpha, n - 1) * tester.state.std / math.sqrt(n)
        mean = tester.state.mean
        estimates.append(
            IntervalEstimate(item=item, lower=mean - half, upper=mean + half, n=n)
        )
    # The items sample in parallel: the group takes its slowest item's rounds.
    session.charge_rounds(max(group_rounds, default=0))
    return PartialOrder(estimates)
