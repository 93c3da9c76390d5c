"""The three judgment models as first-class objects (§3, Table 1).

The paper compares three ways to ask the crowd about items; across this
library they are realized by (oracle adapter, tester) pairings: a
preference oracle with the Student or Stein tester, a
:class:`~repro.crowd.oracle.BinaryOracle` with the Hoeffding tester, and
an oracle that rates single items for graded judgments.

=============  ==========  =========  ========  ====================
Model          Target      Pref.      Error     Workload per target
=============  ==========  =========  ========  ====================
graded         item        absolute   high      unknown (no stop rule)
binary         item pair   relative   low       large (Hoeffding)
preference     item pair   relative   moderate  small (Student/Stein)
=============  ==========  =========  ========  ====================
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["JudgmentModel", "JUDGMENT_MODELS"]


@dataclass(frozen=True)
class JudgmentModel:
    """Descriptor of one judgment model (one row of Table 1)."""

    name: str
    target: str
    preference: str
    error: str
    workload: str
    default_estimator: str | None

    @property
    def has_stopping_rule(self) -> bool:
        """Whether comparisons under this model can stop adaptively."""
        return self.default_estimator is not None


#: Table 1, as data.
JUDGMENT_MODELS = {
    "preference": JudgmentModel(
        name="preference",
        target="item pair",
        preference="relative",
        error="moderate",
        workload="small",
        default_estimator="student",
    ),
    "binary": JudgmentModel(
        name="binary",
        target="item pair",
        preference="relative",
        error="low",
        workload="large",
        default_estimator="hoeffding",
    ),
    "graded": JudgmentModel(
        name="graded",
        target="item",
        preference="absolute",
        error="high",
        workload="unknown",
        default_estimator=None,
    ),
}

