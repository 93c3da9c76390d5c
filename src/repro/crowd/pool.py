"""Lockstep racing of many comparison processes.

Incremental algorithms — SPR's partitioning loop (Algorithm 4) and the
preference-based racing baseline — advance *many* pairs by one batch of
microtasks per round, harvesting whichever verdicts become available.  A
:class:`RacingPool` runs that schedule with fully vectorized stopping-rule
evaluation: one oracle call and one ``decision_codes`` call per round,
regardless of how many pairs are racing.  A caller that does nothing
between rounds (a comparison group) lets the pool race a block of rounds
per call, still one oracle call and one ``decision_codes`` call
(:meth:`RacingPool.round`).

Each pair follows the comparison process of Algorithm 1 — the stopping
rule is checked after every sample, costs are charged only for consumed
samples — but rounds are shared across the pool, which is precisely the
paper's parallel-latency model (§5.5).  A single
:meth:`~repro.crowd.session.CrowdSession.compare` is a pool of one pair.

When the session's oracle is a :class:`~repro.crowd.faults.FaultInjector`
with faults enabled, each round *harvests partial results*: only delivered
answers are evaluated, consumed, charged, and cached; pairs whose whole
batch was dropped are re-raced under the config's
:class:`~repro.config.RetryPolicy` (exponential backoff in rounds, degrade
to tie after ``max_attempts`` consecutive delivery-free rounds or past the
per-pair ``deadline_rounds``).  With every fault rate at zero the pool
takes the historical code path bit for bit.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ..config import ComparisonConfig
from ..core.estimators import SteinTester
from ..core.estimators.base import sample_variance
from .faults import FAULT_MODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import CrowdSession

__all__ = ["RacingPool"]


ACTIVE = 0
DECIDED_LEFT = 1
DECIDED_RIGHT = -1
TIE = 2
DEACTIVATED = 3

#: 0, 1, 2, ...: rounds slice their row and column indices from it
#: instead of building aranges (:func:`_index` grows it).
_INDEX = np.arange(1024, dtype=np.int64)


#: Most judgment cells (rounds × pairs × width) one block of rounds draws
#: and decides (see RacingPool._block_rounds and docs/performance.md,
#: "Racing in blocks").
BLOCK_CELLS = 1024


def _index(size: int) -> np.ndarray:
    """:data:`_INDEX`, grown to hold at least ``size`` entries."""
    global _INDEX
    if _INDEX.size < size:
        _INDEX = np.arange(2 * size, dtype=np.int64)
    return _INDEX


def pool_tally(
    status: np.ndarray, n: np.ndarray, budget: int, step: int, rounds_done: int
) -> dict:
    """A racing pool's progress from its per-pair ``status`` and sample
    counts ``n``.

    ``est_rounds_remaining`` is the worst-case schedule left: the widest
    remaining per-pair budget divided by the round ``step``.  An upper
    bound — pairs usually resolve before exhausting B — but a bound an
    operator can watch shrink.
    """
    # One shifted bincount over the status codes (-1..3) tallies them all.
    tally = np.bincount(status.astype(np.intp) + 1, minlength=DEACTIVATED + 2)
    active = int(tally[ACTIVE + 1])
    if active:
        widest = int(budget - np.min(n, initial=budget, where=status == ACTIVE))
        est_remaining = max(-(-widest // max(step, 1)), 1)
    else:
        est_remaining = 0
    return {
        "pairs": int(status.size),
        "active": active,
        "decided": int(tally[DECIDED_LEFT + 1] + tally[DECIDED_RIGHT + 1]),
        "ties": int(tally[TIE + 1]),
        "rounds_done": rounds_done,
        "est_rounds_remaining": est_remaining,
        "consumed_microtasks": int(n.sum()),
    }


def _rows(indices: np.ndarray, count: int) -> "np.ndarray | slice":
    """What selects the pool rows ``indices`` (sorted, distinct) of
    ``count``: a slice when they are every row, so that reads are views
    and writes plain stores instead of gathers and scatters."""
    return slice(None) if indices.size == count else indices


class RacingPool:
    """Races a fixed set of pairs in batched rounds until each resolves.

    Parameters
    ----------
    session:
        The :class:`CrowdSession` paying for microtasks and rounds.
    pairs:
        The ``(left, right)`` item pairs to race.
    use_cache:
        Replay and extend the session's judgment cache (on for SPR, off for
        PBR whose quadratic pair set would swamp the per-pair store).
    charge_latency:
        Whether each :meth:`round` bills one latency round.
    config:
        Optional comparison-config override (defaults to the session's).
    resume_state:
        A state snapshot previously produced by :meth:`snapshot_state`
        (via a session checkpoint).  When given, the per-pair numeric
        state is restored *exactly* instead of being re-derived from the
        judgment cache — cache replay regroups floating-point sums and
        can differ from the incrementally accumulated originals in the
        last ulp, which would break bit-for-bit resume.
    """

    def __init__(
        self,
        session: "CrowdSession",
        pairs: list[tuple[int, int]],
        *,
        use_cache: bool = True,
        charge_latency: bool = True,
        config: ComparisonConfig | None = None,
        resume_state: dict | None = None,
    ) -> None:
        self.session = session
        config = self.config = config if config is not None else session.config
        self.use_cache = use_cache
        self.charge_latency = charge_latency
        # The tester and the fault injector (set only when the platform
        # actually injects faults; the fault-free path below stays
        # byte-identical) are resolved once per session and config.
        self._tester, self._injector = session._racing_kit(config)
        self._replayable = session.oracle.replayable
        self._budget = config.effective_budget
        self._telemetry = session.telemetry

        count = len(pairs)
        lefts, rights = zip(*pairs) if pairs else ((), ())
        self.left = np.asarray(lefts, dtype=np.int64)
        self.right = np.asarray(rights, dtype=np.int64)
        self.n = np.zeros(count, dtype=np.int64)
        self.s1 = np.zeros(count, dtype=np.float64)
        self.s2 = np.zeros(count, dtype=np.float64)
        self.status = np.zeros(count, dtype=np.int8)  # every pair ACTIVE
        self.initial_decisions: list[tuple[int, int]] = []
        # Two-stage Stein freezes each pair's variance estimate at the
        # cold-start sample; the pool tracks those per pair.
        self._stein = isinstance(self._tester, SteinTester)
        self._stage_var = np.full(count, np.nan) if self._stein else None

        # Retry/backoff/deadline state of the resilience layer.
        self._retry = config.resilience.retry
        self._deadline = self._retry.deadline_rounds
        self._failures = np.zeros(count, dtype=np.int64)
        self._eligible_round = np.zeros(count, dtype=np.int64)
        self._rounds_done = 0
        # Rounds raced that resolved no pair (_block_rounds).
        self._quiet = 0
        # Counter handles, shared by the session's pools: creation stays
        # on first increment (an untouched family must not appear in
        # snapshots), but repeat uses skip the registry's lookup.
        self._counter_cache = session._counter_handles(self._telemetry)
        self._round_counters: tuple | None = None
        self._fault_counters: dict | None = None

        # The cache slots of the pairs, resolved once: every round's
        # deferred write and the replay gather use them directly.
        self._cache = session.cache
        if use_cache and count:
            self._slots = self._cache.slot_ids(self.left, self.right)

        if resume_state is not None:
            self._load_state(resume_state)
        elif use_cache and count:
            self._replay_cache()

    def _counter(self, name: str, **labels: object):
        """A cached counter handle (still created on first use only)."""
        key = (name, tuple(sorted(labels.items()))) if labels else name
        found = self._counter_cache.get(key)
        if found is None:
            found = self._counter_cache[key] = self._telemetry.counter(
                name, **labels
            )
        return found

    def _count_faults(self, mode: str, count: int) -> None:
        """Count ``count`` injected ``mode`` faults into the session's
        registry and emit them as one ``fault`` event."""
        if not count:
            return
        counters = self._fault_counters
        if counters is None:  # the first fault shows every mode's series
            counters = self._fault_counters = {
                each: self._counter("crowd_faults_total", mode=each)
                for each in FAULT_MODES
            }
        counters[mode].add(count)
        self._telemetry.emit("fault", mode=mode, count=count)

    def _replay_cache(self) -> None:
        """Seed pair states from previously stored judgments.

        The cache replays every pair's bag through this pool's stopping
        rule (:meth:`JudgmentCache.replay`) with the per-sample
        semantics of a per-pair :meth:`SequentialTester.scan`: a bag
        decided by an earlier replay answers at once, and an undecided
        one is scanned only past where the last replay stopped, so a
        judgment is scanned about once however often its pair is raced
        again.  Decided bags carry their crossing code, and undecided
        bags that hold the whole budget tie.
        """
        cache = self._cache
        if cache.empty:  # cold cache: nothing to scan, and nothing to fold
            return
        found = cache.replay(
            self.left,
            self.right,
            self._budget,
            self._rule_key,
            self._replay_codes,
            slots=self._slots,
        )
        if found is None:  # no pair has a stored judgment
            return
        rows, n, s1, s2, codes, stage_var = found
        self.n[rows] = n
        self.s1[rows] = s1
        self.s2[rows] = s2
        if self._stein:
            self._stage_var[rows] = stage_var
        # Resolve in pair order, as a per-pair replay would.
        resolve = ((codes != 0) | (n >= self._budget)).nonzero()[0]
        if resolve.size:
            out_codes = codes[resolve]
            out_rows = rows[resolve]
            self.status[out_rows] = np.where(
                out_codes > 0,
                DECIDED_LEFT,
                np.where(out_codes < 0, DECIDED_RIGHT, TIE),
            )
            self.initial_decisions.extend(
                zip(out_rows.tolist(), out_codes.tolist())
            )
            self._counter("crowd_cache_hits_total").inc(resolve.size)

    @property
    def _rule_key(self) -> tuple:
        """What the replay's decisions depend on besides the judgments:
        the rule and its parameters (the budget only limits the read)."""
        tester = self._tester
        return (
            type(tester),
            tester.alpha,
            tester.min_workload,
            getattr(tester, "epsilon", None),
            getattr(tester, "value_range", None),
        )

    def _replay_codes(
        self,
        n_mat: np.ndarray,
        s1_mat: np.ndarray,
        s2_mat: np.ndarray,
        stage_var: np.ndarray,
        reach: np.ndarray,
    ) -> np.ndarray:
        """The stopping rule over a replay scan's cumulative moments,
        gated on the cold-start workload (see :meth:`JudgmentCache.replay`)."""
        if self._stein:
            codes = self._stein_codes(
                n_mat[:, 0] - 1, stage_var, n_mat, s1_mat, s2_mat, reach
            )
        else:
            codes = self._tester.decision_codes(n_mat, s1_mat / n_mat, s2_mat)
        codes[n_mat < self.config.min_workload] = 0
        return codes

    # ------------------------------------------------------------------
    # checkpoint/resume: in-flight racing state
    # ------------------------------------------------------------------
    def snapshot_state(self, indices: np.ndarray | None = None) -> dict:
        """JSON-serializable per-pair numeric state for a checkpoint.

        ``indices`` selects the pairs to snapshot (default: the still
        active ones).  The snapshot pairs with :meth:`__init__`'s
        ``resume_state`` to reconstruct the pool bit for bit.
        """
        idx = self.active_indices if indices is None else np.asarray(indices)
        state = {
            "n": self.n[idx].tolist(),
            "s1": self.s1[idx].tolist(),
            "s2": self.s2[idx].tolist(),
            "stage_var": (
                self._stage_var[idx].tolist() if self._stage_var is not None else None
            ),
            "failures": self._failures[idx].tolist(),
            "eligible_round": self._eligible_round[idx].tolist(),
            "rounds_done": int(self._rounds_done),
        }
        return state

    def _load_state(self, state: dict) -> None:
        """Restore per-pair numeric state saved by :meth:`snapshot_state`."""
        count = self.size
        for key in ("n", "s1", "s2", "failures", "eligible_round"):
            if len(state[key]) != count:
                raise ValueError(
                    f"resume state carries {len(state[key])} values for "
                    f"{key!r} but the pool holds {count} pairs"
                )
        self.n = np.asarray(state["n"], dtype=np.int64)
        self.s1 = np.asarray(state["s1"], dtype=np.float64)
        self.s2 = np.asarray(state["s2"], dtype=np.float64)
        if self._stein:
            saved = state.get("stage_var")
            if saved is not None:
                self._stage_var = np.asarray(saved, dtype=np.float64)
        self._failures = np.asarray(state["failures"], dtype=np.int64)
        self._eligible_round = np.asarray(state["eligible_round"], dtype=np.int64)
        self._rounds_done = int(state["rounds_done"])

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of pairs in the pool."""
        return len(self.left)

    @property
    def active_indices(self) -> np.ndarray:
        """Indices of pairs still racing."""
        return (self.status == ACTIVE).nonzero()[0]

    @property
    def is_done(self) -> bool:
        """Whether no pair is racing any more."""
        return not (self.status == ACTIVE).any()

    def deactivate(self, idx: int) -> None:
        """Stop racing pair ``idx`` without a verdict (it stopped mattering)."""
        if self.status[idx] == ACTIVE:
            self.status[idx] = DEACTIVATED

    def moments(self, idx: int) -> tuple[int, float, float]:
        """``(n, mean, variance)`` of pair ``idx``'s consumed samples."""
        n = int(self.n[idx])
        if n == 0:
            return 0, math.nan, math.nan
        mean = float(self.s1[idx] / n)
        if n < 2:
            return n, mean, math.nan
        var = max((float(self.s2[idx]) - n * mean * mean) / (n - 1), 0.0)
        return n, mean, var

    def mean(self, idx: int) -> float:
        """Sample mean of pair ``idx`` (NaN when empty)."""
        n = int(self.n[idx])
        return float(self.s1[idx] / n) if n else math.nan

    def progress(self, step: int | None = None) -> dict:
        """The pool's tallies for the observatory (see :func:`pool_tally`)."""
        return self.deferred_progress(step)()

    def deferred_progress(self, step: int | None = None) -> partial:
        """:func:`pool_tally` over copies of the pool's state, for a
        reader's thread to call later."""
        step = self.config.batch_size if step is None else int(step)
        return partial(pool_tally, self.status.copy(), self.n.copy(),
                       self._budget, step, int(self._rounds_done))

    # ------------------------------------------------------------------
    def _block_rounds(self, pairs: int, step: int, remaining: np.ndarray) -> int:
        """How many lockstep rounds of ``pairs`` active pairs and width
        ``step`` the next call may race in one block.

        Two more than twice the rounds the pool has raced without
        resolving a pair (a fresh pool races two at once, and the block
        grows while rounds keep resolving nothing), no more than
        :data:`BLOCK_CELLS` judgment cells, and none past the round where
        a pair would reach the per-pair budget or the pool its
        ``deadline_rounds``: every round of a block then races the same
        pairs at the same width, each pair consuming all of it.  Only a
        replayable oracle (see :attr:`JudgmentOracle.replayable`) is
        drawn ahead, and a Stein pool, whose stage variances change
        mid-block, races one round at a time.
        """
        if self._stein or not self._replayable:
            return 1
        rounds = min(
            2 * self._quiet + 2,
            BLOCK_CELLS // (pairs * step),
            int(np.minimum.reduce(remaining)) // step,
        )
        if self._deadline is not None:
            # The caller has already counted this call's first round.
            rounds = min(rounds, self._deadline - self._rounds_done + 1)
        return max(rounds, 1)

    def round(
        self, step: int | None = None, *, ahead: bool = False
    ) -> list[tuple[int, int]]:
        """Advance every active pair by up to one batch of microtasks.

        Returns the newly resolved pairs as ``(pair_index, code)`` with
        code ``+1`` (left wins), ``-1`` (right wins) or ``0`` (tie — the
        per-pair budget ran out undecided, or the pair degraded under the
        retry policy).  Charges the session for the consumed microtasks
        and, if configured, one latency round.

        ``ahead`` says the caller does nothing between rounds but call
        again, as a comparison group racing to its end does.  The call
        may then race the active pairs for a *block* of lockstep rounds
        (:meth:`_block_rounds`), up to and including the first round that
        resolves a pair: one draw of every round, one stopping-rule pass,
        then each round's cache write, charge, counters and event in
        round order, exactly as one call per round makes them.  The
        session's generator is set back and the kept rounds drawn again,
        so it stands where those calls leave it, also when a round's
        charge raises.
        """
        if self._injector is not None:
            return self._faulty_round(step)
        active = (self.status == ACTIVE).nonzero()[0]
        if not active.size:
            return []
        if self._deadline is not None and self._rounds_done >= self._deadline:
            return self._expire_deadline(active)
        step = self.config.batch_size if step is None else int(step)
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        raced = self._rounds_done
        self._rounds_done += 1

        take = _rows(active, self.status.size)
        n0 = self.n[take]
        remaining = self._budget - n0
        # Never draw wider than any pair can still consume: active pairs
        # have n < budget, so the clamp keeps step >= 1.
        step = min(step, int(np.maximum.reduce(remaining)))
        rounds = self._block_rounds(active.size, step, remaining) if ahead else 1
        left, right = self.left[take], self.right[take]
        oracle, rng = self.session.oracle, self.session.rng
        resolved: list[tuple[int, int]] = []
        if rounds == 1:
            draw = oracle.draw_pairs(left, right, step, rng)
            self._commit_rounds(
                active, n0, draw, np.minimum(step, remaining), resolved
            )
            return resolved
        state = rng.bit_generator.state
        draw = oracle.draw_pairs(left, right, step, rng, rounds=rounds)
        try:
            self._commit_rounds(active, n0, draw, step, resolved)
        finally:
            kept = self._rounds_done - raced
            if kept < rounds:
                rng.bit_generator.state = state
                oracle.draw_pairs(left, right, step, rng, rounds=kept)
        return resolved

    def _commit_rounds(
        self,
        sub: np.ndarray,
        n0: np.ndarray,
        values: np.ndarray,
        reach: "np.ndarray | int",
        resolved: list[tuple[int, int]],
        *,
        faulty: bool = False,
    ) -> None:
        """Decide a block of drawn rounds and commit them in round order.

        ``values`` is what a ``(rounds, rows, width)`` block of rounds, or
        one ``(rows, width)`` round, drew for the rows ``sub`` of the
        pool, whose sample counts before it are ``n0``.  ``reach`` is each
        row's consumable sample count per round (at least 1); a block of
        more than one round is only raced where every row can consume its
        whole width in every round (:meth:`_block_rounds`).  One code
        path serves every call: a one-round call is a block of one, and
        the fault path compacts its delivered answers into the same
        shape first, so none of them can drift.

        Round ``r``'s running sums are the end of round ``r - 1`` plus
        its own cumulative sums, the grouping one call per round makes,
        and one stopping-rule pass decides every cell of the block.  The
        block is committed up to and including its first round that
        resolves a pair; before it, every row consumed its whole width.
        Each committed round bumps the round count (the first was counted
        by the caller), queues its cache write, then charges and counts
        itself (:meth:`_settle_round`); a charge that raises leaves the
        pool's moments at the end of its round.  ``resolved`` is
        extended in place with the last round's resolutions — decided
        rows first, budget-exhausted ties after, both in row order,
        exactly the historical per-row emission order.
        """
        block = values.ndim == 3
        rows, width = values.shape[-2:]
        index = _index(len(values) + rows + width + 1)
        take = _rows(sub, self.status.size)
        s1 = np.add.accumulate(values, axis=-1)
        s2 = np.add.accumulate(np.square(values), axis=-1)
        n_start, s1_start, s2_start = n0, self.s1[take], self.s2[take]
        if block:
            # Each round starts where the last one ended: one sequential
            # sum down the rounds chains the ends in round order.
            n_start = n0 + (index[: len(values)] * width)[:, None]
            s1_start = np.add.accumulate(
                np.concatenate((s1_start[None], s1[:-1, :, -1])), axis=0
            )
            s2_start = np.add.accumulate(
                np.concatenate((s2_start[None], s2[:-1, :, -1])), axis=0
            )
        n_mat = n_start[..., None] + index[1 : width + 1]
        s1 += s1_start[..., None]
        s2 += s2_start[..., None]
        if self._stein:  # never a block (see _block_rounds)
            stage_var = self._stage_var[take]
            codes = self._stein_codes(n0, stage_var, n_mat, s1, s2, reach)
            self._stage_var[take] = stage_var
        else:
            codes = self._tester.decision_codes(n_mat, s1 / n_mat, s2)

        # A cell can decide once its pair has the cold-start workload.  The
        # extra last column is a sentinel, so a row's first deciding cell
        # is its argmax, and the row decides when that cell is within the
        # row's reach.
        has_decision = np.empty(values.shape[:-1] + (width + 1,), dtype=bool)
        has_decision[..., width] = True
        cells = has_decision[..., :width]
        np.not_equal(codes, 0, out=cells)
        cells &= n_mat >= self.config.min_workload
        first = has_decision.argmax(axis=-1)
        decided = first < reach

        left, right = self.left[take], self.right[take]
        slots = self._slots[take] if self.use_cache else None
        if block:
            any_decided = decided.any(axis=1)
            r = int(any_decided.argmax()) if any_decided.any() else len(values) - 1
            full = np.full(rows, width, dtype=np.int64) if r else None
            for quiet in range(r):  # the rounds before resolve nothing
                if quiet:
                    self._rounds_done += 1
                self._quiet += 1
                if slots is not None:
                    self._cache.defer_rows(
                        left, right, values[quiet], full, slots=slots
                    )
                try:
                    self._settle_round(rows, width, rows * width, [], 0, faulty)
                except BaseException:
                    self.n[take] = n_start[quiet + 1]
                    self.s1[take] = s1_start[quiet + 1]
                    self.s2[take] = s2_start[quiet + 1]
                    raise
            if r:
                self._rounds_done += 1
            values, n_start, s1, s2 = values[r], n_start[r], s1[r], s2[r]
            first, decided, codes = first[r], decided[r], codes[r]

        consumed = np.minimum(first + 1, reach)
        row_idx = index[:rows]
        last = consumed - 1
        new_n = n_start + consumed
        self.n[take] = new_n
        self.s1[take] = s1[row_idx, last]
        self.s2[take] = s2[row_idx, last]

        decided_idx = sub[decided]
        if decided_idx.size:
            # Decision codes are the DECIDED_LEFT / DECIDED_RIGHT statuses.
            decided_codes = codes[row_idx[decided], first[decided]]
            self.status[decided_idx] = decided_codes
            resolved.extend(zip(decided_idx.tolist(), decided_codes.tolist()))
        budget_ties = 0
        if np.maximum.reduce(new_n) >= self._budget:
            exhausted_idx = sub[~decided & (new_n >= self._budget)]
            budget_ties = exhausted_idx.size
            if budget_ties:
                self.status[exhausted_idx] = TIE
                resolved.extend((idx, 0) for idx in exhausted_idx.tolist())
        if not resolved:
            self._quiet += 1
        if slots is not None:
            # The round's only cache cost is queueing the batch; the bags
            # absorb all queued rounds in one width-grouped pass the next
            # time anything reads the cache (JudgmentCache.defer_rows).
            self._cache.defer_rows(left, right, values, consumed, slots=slots)
        self._settle_round(
            rows, width, int(np.add.reduce(consumed)), resolved, budget_ties, faulty
        )

    def _settle_round(
        self,
        pairs: int,
        width: int,
        consumed_total: int,
        resolved: list[tuple[int, int]],
        budget_ties: int,
        faulty: bool,
    ) -> None:
        """Charge and count one committed round of ``pairs`` rows drawn
        ``width`` wide.  A faulty round billed its latency round and
        counted itself and its draw before drawing."""
        if faulty:
            self.session.charge_many(consumed_total)
        else:
            self.session.charge_many(
                consumed_total, rounds=1 if self.charge_latency else 0
            )
            handles = self._round_counters
            if handles is None:
                handles = self._round_counters = (
                    self._counter("crowd_pool_rounds_total"),
                    self._counter("oracle_judgments_total"),
                )
            handles[0].inc()
            handles[1].add(pairs * width)
        if budget_ties:
            self._counter("crowd_budget_ties_total").add(budget_ties)
        if self._telemetry.has_listeners:
            self._emit_round(pairs, consumed_total, resolved, budget_ties)

    def _emit_round(
        self,
        pairs: int,
        consumed_total: int,
        resolved: list[tuple[int, int]],
        budget_ties: int,
    ) -> None:
        """One coalesced ``pool_round`` event per round.

        Replaces any per-record emission granularity: a flight recorder
        or JSONL sink sees a single aggregate event per lockstep round.
        Callers check ``has_listeners`` first, so the payload dict is
        never built for nobody.
        """
        self._telemetry.emit(
            "pool_round",
            pairs=int(pairs),
            consumed=consumed_total,
            resolved=len(resolved),
            budget_ties=budget_ties,
            round=int(self._rounds_done),
        )

    def _stein_codes(
        self,
        n_before: np.ndarray,
        stage_var: np.ndarray,
        n_mat: np.ndarray,
        s1_mat: np.ndarray,
        s2_mat: np.ndarray,
        reach: np.ndarray,
    ) -> np.ndarray:
        """Two-stage Stein decisions: capture stage variances, then decide.

        ``n_before`` is each row's sample count before the block and
        ``stage_var`` its stage variance, filled in place for the rows
        whose first stage completes within the block.  ``reach`` is the
        per-row number of samples the block can actually consume —
        ``min(step, remaining)`` on the fault-free path, further limited
        by delivered answers under fault injection, and the bag's unread
        judgments in a cache replay.
        """
        stage = self.config.min_workload
        crossing = np.flatnonzero(
            np.isnan(stage_var)
            & (n_before < stage)
            & (n_before + reach >= stage)
        )
        if crossing.size:
            cols = (stage - n_before[crossing] - 1).astype(np.intp)
            at_n = n_mat[crossing, cols]
            at_mean = s1_mat[crossing, cols] / at_n
            stage_var[crossing] = sample_variance(
                at_n, at_mean, s2_mat[crossing, cols]
            )
        return SteinTester.frozen_codes(
            n_mat,
            s1_mat / n_mat,
            stage_var[:, None],
            stage - 1,
            self._tester.alpha,
            self._tester.epsilon,
        )

    # ------------------------------------------------------------------
    # fault-aware execution
    # ------------------------------------------------------------------
    def _expire_deadline(self, active: np.ndarray) -> list[tuple[int, int]]:
        """Degrade every still-active pair to a tie: the deadline passed."""
        self.status[active] = TIE
        resolved = [(idx, 0) for idx in active.tolist()]
        self.session.count_degraded_ties("deadline", int(active.size))
        if self._telemetry.has_listeners:  # the pair list is listener-only
            self._telemetry.emit(
                "degraded_tie",
                reason="deadline",
                pairs=[
                    [int(self.left[i]), int(self.right[i])] for i, _ in resolved
                ],
                round=int(self._rounds_done),
            )
        return resolved

    def _register_failures(
        self, failed: np.ndarray, round_no: int
    ) -> list[tuple[int, int]]:
        """Account pairs whose whole batch was dropped this round.

        Pairs that exhausted ``max_attempts`` consecutive delivery-free
        rounds degrade to ties; the rest are re-posted after their
        exponential-backoff wait.
        """
        self._failures[failed] += 1
        exhausted = failed[self._failures[failed] >= self._retry.max_attempts]
        retrying = failed[self._failures[failed] < self._retry.max_attempts]
        resolved: list[tuple[int, int]] = []
        if exhausted.size:
            self.status[exhausted] = TIE
            resolved.extend((idx, 0) for idx in exhausted.tolist())
            self.session.count_degraded_ties("retries", int(exhausted.size))
            if self._telemetry.has_listeners:
                self._telemetry.emit(
                    "degraded_tie",
                    reason="retries",
                    pairs=[
                        [int(self.left[int(i)]), int(self.right[int(i)])]
                        for i in exhausted
                    ],
                    round=int(round_no),
                )
        if retrying.size:
            waits = np.asarray(
                [
                    self._retry.backoff_rounds(int(f))
                    for f in self._failures[retrying]
                ],
                dtype=np.int64,
            )
            self._eligible_round[retrying] = round_no + 1 + waits
            self._counter("crowd_retries_total").add(int(retrying.size))
            if self._telemetry.has_listeners:
                self._telemetry.emit(
                    "retry",
                    pairs=int(retrying.size),
                    round=int(round_no),
                    max_backoff_rounds=int(waits.max()),
                )
        return resolved

    def _faulty_round(self, step: int | None = None) -> list[tuple[int, int]]:
        """One round against a faulty platform: harvest what arrived.

        Differences from the fault-free path: a whole-platform outage
        draws nothing; dropped tasks (timeout/loss) are masked out of the
        evaluation, never consumed, charged, or cached; pairs with zero
        arrivals go through the retry policy; a latency round is billed
        even when nothing arrives (the crowd clock still ticks).
        """
        active = self.active_indices
        if active.size == 0:
            return []
        if self._deadline is not None and self._rounds_done >= self._deadline:
            return self._expire_deadline(active)
        step = self.config.batch_size if step is None else int(step)
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        round_no = self._rounds_done
        self._rounds_done += 1
        if self.charge_latency:
            self.session.charge_rounds(1)
        self._counter("crowd_pool_rounds_total").inc()

        eligible = active[self._eligible_round[active] <= round_no]
        if eligible.size == 0:
            return []  # every active pair is waiting out its backoff

        remaining = (self._budget - self.n[eligible]).astype(np.int64)
        step = int(min(step, int(remaining.max())))
        if self._injector.outage_round():
            self._count_faults("outage", 1)
            return self._register_failures(eligible, round_no)

        draw = self._injector.draw_pairs(
            self.left[eligible], self.right[eligible], step, self.session.rng
        )
        self._counter("oracle_judgments_total").add(int(draw.size))
        # delivery_mask consumes no fault randomness at zero drop rate, so
        # skipping it entirely is RNG-neutral and saves the allocation.
        mask = None
        if self._injector.policy.drop_rate > 0:
            mask, timeouts, losses = self._injector.delivery_mask(
                eligible.size, step
            )
            self._count_faults("timeout", timeouts)
            self._count_faults("loss", losses)

        resolved: list[tuple[int, int]] = []
        if mask is None or mask.all():
            # Full delivery (always at zero rates, most rounds at small
            # ones): the draw is already compact and every slot is valid,
            # so skip the compaction and zero-fill entirely — this keeps
            # the forced zero-fault path within a few percent of the
            # historical one.
            sub = eligible
            self._failures[sub] = 0
            values = draw
            if self._injector.policy.duplicate_rate > 0:
                valid = np.ones(values.shape, dtype=bool)
                self._count_faults(
                    "duplicate", self._injector.apply_duplicates(values, valid)
                )
            reach = np.minimum(step, remaining)
        else:
            arrivals = mask.sum(axis=1).astype(np.int64)
            failed = eligible[arrivals == 0]
            if failed.size:
                resolved.extend(self._register_failures(failed, round_no))
            got = np.flatnonzero(arrivals > 0)
            if got.size == 0:
                return resolved
            sub = eligible[got]
            self._failures[sub] = 0  # a delivery resets the retry count

            # Compact each row's delivered answers to the left;
            # beyond-arrival columns are zeroed so the cumulative sums
            # stay clean.
            counts_got = arrivals[got]
            width = int(counts_got.max())
            order = np.argsort(~mask[got], axis=1, kind="stable")
            values = np.take_along_axis(draw[got], order, axis=1)[:, :width]
            col = np.arange(1, width + 1, dtype=np.int64)
            valid = col[None, :] <= counts_got[:, None]
            self._count_faults(
                "duplicate", self._injector.apply_duplicates(values, valid)
            )
            values = np.where(valid, values, 0.0)
            reach = np.minimum(counts_got, remaining[got])

        self._commit_rounds(sub, self.n[sub], values, reach, resolved, faulty=True)
        return resolved

    def run_to_completion(self, step: int | None = None) -> list[tuple[int, int]]:
        """Race until every pair resolves; returns all resolutions in order."""
        resolved = list(self.initial_decisions)
        while not self.is_done:
            resolved.extend(self.round(step, ahead=True))
        return resolved
