"""Failure-injecting crowd platform.

The paper assumes every posted microtask eventually returns an answer;
real platforms drop, delay, and duplicate tasks.  A :class:`FaultInjector`
wraps any :class:`~repro.crowd.oracle.JudgmentOracle` with a *seeded*
failure model (:class:`~repro.config.FaultPolicy`) so the resilience layer
— retries, backoff, deadlines, checkpoint/resume — can be exercised
deterministically.

Design invariants:

* **Separate randomness.**  Failures are drawn from a dedicated fault RNG,
  never from the session's judgment stream.  With every rate at zero a
  session wrapping its oracle consumes its RNG exactly as an unwrapped one,
  so all seed-pinned expectations hold unchanged.
* **The oracle stays the oracle.**  ``draw_pairs`` passes through to
  the wrapped oracle untouched — it models what workers *answer*.
  Failures happen at the *delivery* layer: the racing pool, which runs
  every comparison, asks the injector which posted tasks actually
  arrived via :meth:`outage_round`, :meth:`delivery_mask` and
  :meth:`apply_duplicates`, which return how many faults they
  injected.
* **Lost work is never charged.**  Timeouts and losses are answers that
  never reach the requester; the pool charges (and caches) only
  delivered, consumed judgments.  Duplicates *are* charged — the worker
  submitted, the answer just carries no fresh information.

The pool counts those faults, per mode, into its session's
``crowd_faults_total{mode=...}`` and emits them as ``fault`` events.
"""

from __future__ import annotations

import numpy as np

from ..config import FaultPolicy
from .oracle import JudgmentOracle

__all__ = ["FaultInjector"]

#: Telemetry label values of the injected failure modes.
FAULT_MODES = ("timeout", "loss", "duplicate", "outage")


class FaultInjector(JudgmentOracle):
    """Wraps a judgment oracle with a seeded platform failure model.

    Parameters
    ----------
    base:
        The oracle answering microtasks when the platform cooperates.
    policy:
        The failure model.  ``policy.seed`` seeds the dedicated fault RNG;
        two injectors with equal policies produce the identical failure
        sequence.
    force:
        Route consumers through the fault-aware delivery path even when
        every rate is zero (all tasks then arrive).  Used by the
        ``--suite faults`` benchmark to price the resilience machinery
        itself; never needed in normal operation.
    """

    def __init__(
        self,
        base: JudgmentOracle,
        policy: FaultPolicy | None = None,
        *,
        force: bool = False,
    ) -> None:
        if isinstance(base, FaultInjector):
            raise ValueError("refusing to stack one FaultInjector on another")
        self.base = base
        self.policy = policy if policy is not None else FaultPolicy()
        self.force = force
        self.fault_rng = np.random.default_rng(self.policy.seed)
        self.bounds = base.bounds

    # ------------------------------------------------------------------
    # oracle protocol: judgments pass through untouched
    # ------------------------------------------------------------------
    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return self.base.draw_pairs(left, right, size, rng)

    @property
    def supports_rating(self) -> bool:
        return self.base.supports_rating

    def rate(self, item: int, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.base.rate(item, size, rng)

    def __getattr__(self, name: str):
        # Dataset-specific oracle extras (e.g. HistogramOracle.mean_rating)
        # resolve against the wrapped oracle.
        if name == "base":  # guard: not yet set during construction
            raise AttributeError(name)
        return getattr(self.base, name)

    # ------------------------------------------------------------------
    # delivery layer
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether consumers should take the fault-aware delivery path."""
        return self.force or self.policy.enabled

    def outage_round(self) -> bool:
        """Whether this entire distribution round is lost to an outage.

        Consumes one fault-RNG draw only when ``outage_rate > 0``, so
        enabling other modes does not shift the outage stream.
        """
        if self.policy.outage_rate <= 0:
            return False
        return bool(self.fault_rng.random() < self.policy.outage_rate)

    def delivery_mask(self, rows: int, size: int) -> tuple[np.ndarray, int, int]:
        """Which of ``rows × size`` posted tasks actually deliver an answer.

        Returns a boolean ``(rows, size)`` matrix — ``True`` where the
        answer arrived this round — and the number of timeouts and of
        losses.  The caller must never charge or cache a masked-out draw.
        """
        policy = self.policy
        if policy.drop_rate <= 0:
            return np.ones((rows, size), dtype=bool), 0, 0
        u = self.fault_rng.random((rows, size))
        timed_out = u < policy.timeout_rate
        lost = ~timed_out & (u < policy.drop_rate)
        return ~(timed_out | lost), int(timed_out.sum()), int(lost.sum())

    def apply_duplicates(self, values: np.ndarray, valid: np.ndarray) -> int:
        """Replace some delivered answers with duplicate submissions.

        ``values`` is a ``(rows, width)`` matrix of *delivered* judgments
        (compacted left), ``valid`` the matching arrival mask.  Each valid
        slot after the first in its row duplicates its predecessor with
        probability ``duplicate_rate`` — the platform handing back a copy
        of the previous answer for the same pair.  Mutates ``values`` in
        place and returns the number of duplicated slots.
        """
        rate = self.policy.duplicate_rate
        if rate <= 0 or values.shape[1] < 2:
            return 0
        u = self.fault_rng.random((values.shape[0], values.shape[1] - 1))
        dup = (u < rate) & valid[:, 1:]
        count = int(dup.sum())
        if count:
            # Sequential scan: a duplicate of a duplicate copies the copy,
            # like a lazy worker resubmitting whatever is on screen.
            for col in range(1, values.shape[1]):
                picked = dup[:, col - 1]
                if picked.any():
                    values[picked, col] = values[picked, col - 1]
        return count
