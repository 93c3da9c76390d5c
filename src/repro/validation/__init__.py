"""Statistical correctness validation for the reproduction.

The paper's central promise is conditional: every verdict COMP delivers is
wrong with probability at most ``α``, and SPR's top-k inherits its recall
from that per-comparison guarantee (§3.1, §5.4).  The rest of the library
*uses* those guarantees; this package *measures* them:

* :mod:`repro.validation.guarantees` — Monte-Carlo guarantee checking:
  many seeded replications of COMP / partitioning / full SPR, empirical
  error rates with Wilson confidence bounds, pass/fail against the
  configured ``1 − α`` (and the §5.4 ``(1 − α)/c`` recall floor).
* :mod:`repro.validation.invariants` — reusable runtime invariants (cost
  accounting reconciles with oracle draws and telemetry, cache-bag moments
  match recomputation, partition trichotomy is exhaustive, the selected
  reference lands in the sweet spot) that tests and the simulator can both
  attach to a live :class:`~repro.crowd.session.CrowdSession`.

Both suites are wired into the CLI as ``crowd-topk validate`` and
report through the telemetry registry (``validation_*`` metrics — see
docs/observability.md); docs/testing.md explains how they slot into the
tiered test architecture.
"""

from __future__ import annotations

from .guarantees import (
    GuaranteeCheck,
    GuaranteeReport,
    run_guarantee_suite,
    wilson_interval,
)
from .invariants import (
    InvariantEngine,
    InvariantReport,
    InvariantResult,
    InvariantViolation,
    check_resume_determinism,
    run_invariant_suite,
)

__all__ = [
    "GuaranteeCheck",
    "GuaranteeReport",
    "InvariantEngine",
    "InvariantReport",
    "InvariantResult",
    "InvariantViolation",
    "check_resume_determinism",
    "run_guarantee_suite",
    "run_invariant_suite",
    "wilson_interval",
]
