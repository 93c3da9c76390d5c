"""Per-query explain reports: where every microtask of the bill went.

A deployment that just paid for a four-figure crowd query wants the
answer *explained*: which phase spent what, which items absorbed the
budget, and which comparisons support each member of the returned top-k.
:func:`explain_query` folds two records of the query into one
:class:`ExplainReport` that renders as a human-readable table
(``crowd-topk explain``) and as JSON for tooling:

* the comparison events of a :class:`~repro.telemetry.FlightRecorder`
  attached to the session for the whole query, each stamped with the
  phase (innermost open span) it resolved in;
* the registry's completed spans, whose exclusive cost, rounds and
  seconds make the phase rows.

Attribution rules — chosen so the report always reconciles exactly:

* Each recorded comparison's incremental cost is charged to its **left**
  item (the candidate under test; references and pivots sit on the
  right).  Summing per-item costs therefore never double-counts.
* Spending the recorder never saw — SPR's selection phase, which runs on
  a forked session whose compare listeners are deliberately cleared, and
  partitioning, which buys through the racing pool — lands in an
  explicit ``unattributed`` bucket rather than being smeared over items.
* Spending outside every span (a method that opens none, such as
  ``tournament``) forms the ``query`` phase row, so the phase rows, too,
  sum to the bill.

The reconciliation identity (pinned by an integration test)::

    sum(item costs) + unattributed == session.total_cost
                                   == crowd_microtasks_total
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession
    from ..telemetry import FlightRecorder

__all__ = ["ExplainReport", "ItemCost", "TrailEntry", "explain_query"]


@dataclass(frozen=True)
class ItemCost:
    """Microtask spending attributed to one item (as the left operand)."""

    item: int
    cost: int
    comparisons: int
    workload: int


@dataclass(frozen=True)
class TrailEntry:
    """One comparison supporting (or challenging) a top-k member.

    ``outcome`` is rewritten from the member's own perspective: ``WIN``
    means the member beat ``opponent`` regardless of which side of the
    original comparison it sat on.
    """

    index: int
    phase: str
    opponent: int
    outcome: str
    workload: int
    cost: int
    rounds: int

    def line(self) -> str:
        return (
            f"    [{self.index:4d}] {self.phase:12s} vs {self.opponent:<6d} "
            f"{self.outcome:5s} w={self.workload:<5d} +{self.cost}"
        )


#: The phase of comparisons and spending outside every span.
ROOT_PHASE = "query"

#: Outcome names from the member's own perspective.  Comparison events carry
#: the session's ``LEFT``/``RIGHT``/``TIE`` verdicts; a trail entry says
#: ``WIN`` when the member won regardless of which side it sat on.
_AS_MEMBER = {"left": {"LEFT": "WIN", "RIGHT": "LOSS", "TIE": "TIE"},
              "right": {"LEFT": "LOSS", "RIGHT": "WIN", "TIE": "TIE"}}


@dataclass(frozen=True)
class ExplainReport:
    """Provenance of one answered top-k query.

    Build with :func:`explain_query`; render with :meth:`to_text` or
    :meth:`to_json`.
    """

    method: str
    k: int
    topk: tuple[int, ...]
    total_cost: int
    total_rounds: int
    total_comparisons: int
    cached_comparisons: int
    budget_cap: int | None
    phases: tuple[dict, ...]
    item_costs: tuple[ItemCost, ...]
    unattributed: int
    trails: dict[int, tuple[TrailEntry, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def attributed(self) -> int:
        """Microtasks the recorder could pin to a specific item."""
        return sum(entry.cost for entry in self.item_costs)

    def reconciles(self, microtasks_total: int | None = None) -> bool:
        """Whether per-item costs + unattributed == the ledger total.

        Pass the ``crowd_microtasks_total`` counter value to also check
        the telemetry side of the identity.
        """
        if self.attributed + self.unattributed != self.total_cost:
            return False
        if microtasks_total is not None and microtasks_total != self.total_cost:
            return False
        return True

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "topk": list(self.topk),
            "total_cost": self.total_cost,
            "total_rounds": self.total_rounds,
            "total_comparisons": self.total_comparisons,
            "cached_comparisons": self.cached_comparisons,
            "budget_cap": self.budget_cap,
            "phases": [dict(p) for p in self.phases],
            "items": [vars(c) for c in self.item_costs],
            "unattributed": self.unattributed,
            "trails": {
                str(item): [vars(e) for e in trail]
                for item, trail in self.trails.items()
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self, trail_limit: int = 8, item_limit: int = 15) -> str:
        lines = [
            f"explain: top-{self.k} by {self.method}",
            f"  total cost   {self.total_cost:,} microtasks"
            + (f" (cap {self.budget_cap:,})" if self.budget_cap else ""),
            f"  latency      {self.total_rounds:,} rounds",
            f"  comparisons  {self.total_comparisons:,} recorded "
            f"({self.cached_comparisons:,} cache hits)",
            "",
            "  phase (exclusive)        count       cost     rounds    seconds",
        ]
        for p in self.phases:
            seconds = "-" if p["seconds"] is None else f"{p['seconds']:.4f}"
            lines.append(
                f"  {p['phase']:<18s} {p['comparisons']:>11,} {p['cost']:>10,} "
                f"{p['rounds']:>10,} {seconds:>10s}"
            )
        lines.append("")
        lines.append("  cost by item (left operand of each comparison):")
        lines.append("  item         cost  comparisons   workload")
        for entry in self.item_costs[:item_limit]:
            lines.append(
                f"  {entry.item:<8d} {entry.cost:>8,} {entry.comparisons:>12,} "
                f"{entry.workload:>10,}"
            )
        hidden = len(self.item_costs) - item_limit
        if hidden > 0:
            tail = sum(e.cost for e in self.item_costs[item_limit:])
            lines.append(f"  ... {hidden} more items ({tail:,} microtasks)")
        if self.unattributed:
            lines.append(
                f"  (unattributed) {self.unattributed:>6,}  "
                "— spending the recorder never saw (selection fork, racing pool)"
            )
        lines.append("")
        lines.append("  confidence trail per returned item:")
        for position, item in enumerate(self.topk, start=1):
            trail = self.trails.get(item, ())
            wins = sum(1 for e in trail if e.outcome == "WIN")
            losses = sum(1 for e in trail if e.outcome == "LOSS")
            ties = len(trail) - wins - losses
            spent = sum(e.cost for e in trail)
            lines.append(
                f"  {position:3d}. item {item}: {len(trail)} comparisons "
                f"({wins}W/{losses}L/{ties}T), {spent:,} microtasks touched"
            )
            for e in trail[:trail_limit]:
                lines.append(e.line())
            if len(trail) > trail_limit:
                lines.append(f"    ... {len(trail) - trail_limit} more")
        identity = "OK" if self.reconciles() else "MISMATCH"
        lines.append("")
        lines.append(
            f"  reconciliation: {self.attributed:,} attributed + "
            f"{self.unattributed:,} unattributed = {self.total_cost:,} "
            f"total [{identity}]"
        )
        return "\n".join(lines)


def _phase_rows(session: "CrowdSession", events: list[dict]) -> tuple[dict, ...]:
    """Per-phase exclusive totals from the registry's completed spans.

    Exclusive figures never double-count a microtask across a span tree;
    what no span covers forms the :data:`ROOT_PHASE` row, so the rows sum
    to the session total.  ``comparisons`` counts the recorded
    comparisons that resolved in each phase.
    """
    totals: dict[str, list] = {}
    for span in session.telemetry.spans:
        if span.cost is None:
            continue
        bucket = totals.setdefault(span.name, [0, 0, 0.0])
        bucket[0] += span.exclusive_cost
        bucket[1] += span.exclusive_rounds
        bucket[2] += span.exclusive_seconds
    spent_cost, spent_rounds = session.spent()
    counts = Counter(event["phase"] or ROOT_PHASE for event in events)
    outside = (
        spent_cost - sum(bucket[0] for bucket in totals.values()),
        spent_rounds - sum(bucket[1] for bucket in totals.values()),
    )
    if any(outside) or counts[ROOT_PHASE]:
        totals[ROOT_PHASE] = [*outside, None]  # no span timed it
    return tuple(
        {"phase": name, "comparisons": counts[name], "cost": cost,
         "rounds": rounds, "seconds": seconds}
        for name, (cost, rounds, seconds) in sorted(totals.items())
    )


def explain_query(
    session: "CrowdSession",
    recorder: "FlightRecorder",
    topk: tuple[int, ...] | list[int],
    *,
    method: str = "spr",
    k: int | None = None,
) -> ExplainReport:
    """Fold a finished query's recorded comparisons and spans into a report.

    ``recorder`` must have been attached to ``session`` for the whole
    query and must keep every event (``FlightRecorder(capacity=None)``);
    phase rows come from the spans of the session's registry.  The
    report reconciles against the *session* ledgers: any spending the
    recorder missed is surfaced as ``unattributed``.
    """
    topk = tuple(int(i) for i in topk)
    k = len(topk) if k is None else k
    document = recorder.to_dict()
    if document["events_dropped"]:
        raise ValueError(
            f"the recorder dropped {document['events_dropped']} events; "
            "explain needs FlightRecorder(capacity=None)"
        )
    events = [e for e in document["events"] if e["type"] == "comparison"]

    costs: dict[int, list[int]] = {}
    for event in events:
        bucket = costs.setdefault(event["left"], [0, 0, 0])
        bucket[0] += event["cost"]
        bucket[1] += 1
        bucket[2] += event["workload"]
    item_costs = tuple(
        ItemCost(item=item, cost=c, comparisons=n, workload=w)
        for item, (c, n, w) in sorted(
            costs.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
    )

    total_cost = session.total_cost
    unattributed = total_cost - sum(e.cost for e in item_costs)

    members = set(topk)
    collected: dict[int, list[TrailEntry]] = {item: [] for item in topk}
    for index, event in enumerate(events):
        left, right = event["left"], event["right"]
        for item in (left, right):
            if item not in members or left == right:
                continue
            side = "right" if item == right else "left"
            collected[item].append(
                TrailEntry(
                    index=index,
                    phase=event["phase"] or ROOT_PHASE,
                    opponent=left if side == "right" else right,
                    outcome=_AS_MEMBER[side].get(event["outcome"], event["outcome"]),
                    workload=event["workload"],
                    cost=event["cost"],
                    rounds=event["rounds"],
                )
            )
    trails = {item: tuple(entries) for item, entries in collected.items()}

    _, total_rounds = session.spent()
    return ExplainReport(
        method=method,
        k=k,
        topk=topk,
        total_cost=total_cost,
        total_rounds=total_rounds,
        total_comparisons=len(events),
        cached_comparisons=sum(
            1 for e in events if e["cost"] == 0 and e["workload"] > 0
        ),
        budget_cap=session.cost.ceiling,
        phases=_phase_rows(session, events),
        item_costs=item_costs,
        unattributed=unattributed,
        trails=trails,
    )
