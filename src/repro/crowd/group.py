"""Racing a parallel comparison group.

A *parallel comparison group* (§5.5) is a set of comparisons outsourced to
the crowd simultaneously: cost is the sum over the group, latency is the
max.  :meth:`CrowdSession.compare_many` runs one the way the
sequential-elimination literature schedules it — every pair of the group
races through one :class:`~repro.crowd.pool.RacingPool` in lockstep
rounds, so each round is **one** ``draw_pairs`` call and **one**
vectorized stopping-rule evaluation for the whole group, regardless of
group size.  Nothing happens between a group's rounds, so the pool races
them ahead in blocks: one draw and one evaluation for several rounds, up
to the first that resolves a pair (``RacingPool.round(ahead=True)``).  A
single :meth:`CrowdSession.compare` is a group of one pair: there is no
other comparison engine.

:func:`plan_group` validates and dedupes the group; :func:`race_planned`
races it and reports one record per occurrence, as the columns of a
:class:`~repro.core.comparison.GroupRecords`, with the accounting
semantics of a loop of single comparisons:

* the stopping rule is checked after every sample;
* cost is charged only for consumed microtasks;
* the group occupies the crowd for ``max`` rounds over its members, as
  the pool counts them, so a pair that reaches its ``deadline_rounds`` is
  billed that many rounds;
* the judgment cache receives exactly the consumed draws;
* a pair whose cached bag already decides it costs nothing, and repeated
  occurrences of one pair inside a group are served from the first
  occurrence's samples — exactly as a cache replay would.

Only the *order* in which the session RNG is consumed differs from such a
loop (lockstep rounds interleave the pairs' draws), so individual
judgments — and therefore seed-pinned workloads — differ while the
distribution stays the same (``tests/test_statistical_parity.py`` pins the
TMC ratio to within 3% over 1,000 paired SPR queries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..core.comparison import GroupRecords
from .pool import TIE, RacingPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import CrowdSession

__all__ = ["plan_group", "race_planned"]


class Group(NamedTuple):
    """A validated comparison group: its occurrences, in input order, and
    the distinct pairs they race (first orientation seen)."""

    lefts: list[int]
    rights: list[int]
    unique: list[tuple[int, int]]
    #: Index into ``unique`` of each occurrence.
    slots: list[int]
    #: Whether each occurrence is its pair's first.
    fresh: list[bool]
    #: -1 where an occurrence is oriented against its raced pair, else 1.
    signs: list[int]


class GroupTally(NamedTuple):
    """What the session's group-level instruments need, read off the
    race's arrays rather than re-derived from the records."""

    #: Samples backing each occurrence's verdict, in input order.
    workloads: list[int]
    #: Repeated occurrences served from an earlier occurrence's samples.
    replay_hits: int
    #: Budget ties that cost nothing: repeats and cache replays of a
    #: pair whose judgments reached the per-pair budget.
    cached_ties: int
    #: Rounds the group occupied the crowd (its slowest member's).
    rounds: int


def plan_group(pairs) -> Group:
    """Validate ``pairs`` and dedupe them into the pairs to race.

    Raises ``ValueError`` on a self-pair before anything is bought.
    """
    lefts: list[int] = []
    rights: list[int] = []
    unique: list[tuple[int, int]] = []
    slots: list[int] = []
    fresh: list[bool] = []
    signs: list[int] = []
    first_of: dict[tuple[int, int], int] = {}
    for left, right in pairs:
        left, right = int(left), int(right)
        if left == right:
            raise ValueError(f"cannot compare item {left} with itself")
        key = (left, right) if left < right else (right, left)
        slot = first_of.get(key)
        if slot is None:
            slot = first_of[key] = len(unique)
            unique.append((left, right))
            fresh.append(True)
            signs.append(1)
        else:
            fresh.append(False)
            signs.append(1 if left == unique[slot][0] else -1)
        lefts.append(left)
        rights.append(right)
        slots.append(slot)
    return Group(lefts, rights, unique, slots, fresh, signs)


def race_planned(
    session: "CrowdSession", group: Group
) -> tuple[GroupRecords, GroupTally]:
    """Race a planned group; its records in input order and its tally.

    Charges the session for consumed microtasks only; latency is *not*
    charged here — the caller bills the tally's rounds.
    """
    pool = RacingPool(session, group.unique, charge_latency=False)
    replayed = pool.n.copy()  # workload already paid for by the cache
    rounds_of = np.zeros(len(group.unique), dtype=np.int64)
    # Every pair leaving ACTIVE is reported exactly once, by the replay
    # or by the round that resolved it.
    # The pool's own round count bills the group: the call that only
    # expires pairs at their deadline is not a round.
    pending = pool.size - len(pool.initial_decisions)
    while pending:
        resolved = pool.round(ahead=True)
        for idx, _ in resolved:
            rounds_of[idx] = pool._rounds_done
        pending -= len(resolved)

    # The records are array-native end to end: per-pair verdicts and
    # moments are whole-group passes, each column is one gather from them,
    # orientation flips multiply by -1 (exact negation) and repeats
    # multiply their cost and rounds by 0.  ComparisonRecords are built
    # from the columns only when a reader indexes or iterates them,
    # bit-identical to a per-row synthesis (pinned by
    # tests/test_record_synthesis.py and the apply-parity golden).
    # No errstate guard needed: denominators are clamped >= 1 and every
    # NaN below is propagation of an existing NaN, which never warns.
    n_u = pool.n
    mean_u = pool.s1 / np.maximum(n_u, 1)
    mean_u[n_u == 0] = np.nan
    var_u = (pool.s2 - n_u * mean_u * mean_u) / np.maximum(n_u - 1, 1)
    std_u = np.sqrt(np.where(n_u >= 2, np.maximum(var_u, 0.0), np.nan))
    # A resolved pair's status is its code, except that a tie reads TIE.
    status = pool.status
    code_u = np.where(status == TIE, 0, status)

    slots = np.asarray(group.slots, dtype=np.intp)
    fresh = np.asarray(group.fresh, dtype=np.int64)
    signs = np.asarray(group.signs, dtype=np.int64)
    slot_n = n_u[slots]
    costs = (n_u - replayed)[slots] * fresh
    codes = code_u[slots] * signs
    records = GroupRecords(
        np.asarray(group.lefts, dtype=np.int64),
        np.asarray(group.rights, dtype=np.int64),
        codes,
        workloads=slot_n,
        costs=costs,
        rounds=rounds_of[slots] * fresh,
        means=mean_u[slots] * signs,  # an empty workload's NaN passes through
        stds=std_u[slots],  # NaN (workload < 2) passes through
    )
    # Repeats cost nothing and are replays of the first occurrence's
    # samples.  A tie that cost nothing (a repeat, or a pair read from the
    # cache) is a budget tie only if its judgments reached the budget: a
    # pair the resilience policy degraded before buying any is not.
    replay_hits = cached_ties = 0
    if len(group.unique) < len(slots):
        replay_hits = int(np.count_nonzero(slot_n[fresh == 0]))
    if costs.size and not np.minimum.reduce(costs):
        cached_ties = int(
            np.count_nonzero((codes == 0) & (costs == 0) & (slot_n >= pool._budget))
        )
    # The slowest member resolved in the group's last round.
    return records, GroupTally(
        slot_n.tolist(), replay_hits, cached_ties, pool._rounds_done
    )
