"""Plan → run → audit: a deployment workflow end to end.

1. **Plan**: turn requirements (top-10 of 150 items, ≥0.6 precision,
   ≤US$60) into a configuration using the §5.4 bound and the Lemma-1 cost
   model.
2. **Run**: execute SPR under that configuration with a flight recorder
   keeping every comparison.
3. **Audit**: reconcile the bill — phase totals, most expensive
   comparisons, dollars and projected wall clock.

Run:  python examples/plan_audit_deploy.py
"""

import numpy as np

from repro import (
    CrowdSession,
    FlightRecorder,
    LatentScoreOracle,
    MetricsRegistry,
    SPRConfig,
    explain_query,
    spr_topk,
)
from repro.crowd.timeline import project_wall_clock
from repro.crowd.workers import GaussianNoise
from repro.extensions import session_bill
from repro.planner import plan_query

N_ITEMS, K = 150, 10
SPREAD, NOISE = 2.0, 1.2


def main() -> None:
    # ---- 1. plan -----------------------------------------------------
    plan = plan_query(
        N_ITEMS, K,
        target_precision=0.6,
        dollar_budget=60.0,
        score_spread=SPREAD,
        noise_sigma=NOISE,
    )
    print("PLAN")
    print(" ", plan.summary())
    print(" ", plan.rationale, "\n")

    # ---- 2. run ------------------------------------------------------
    rng = np.random.default_rng(2)
    scores = rng.normal(0.0, SPREAD, size=N_ITEMS)
    oracle = LatentScoreOracle(scores, GaussianNoise(NOISE))
    session = CrowdSession(
        oracle, plan.config, seed=7, telemetry=MetricsRegistry()
    )
    with FlightRecorder(capacity=None).attach(session=session) as recorder:
        result = spr_topk(
            session, list(range(N_ITEMS)), K, SPRConfig(comparison=plan.config)
        )
    report = explain_query(session, recorder, result.topk, k=K)

    truth = set(np.argsort(-scores)[:K].tolist())
    hits = len(truth & set(result.topk))
    print("RUN")
    print(f"  top-{K}: {list(result.topk)}")
    print(f"  precision vs hidden truth: {hits}/{K} "
          f"(planned floor {plan.expected_precision_floor:.2f})\n")

    # ---- 3. audit ----------------------------------------------------
    bill = session_bill(session)
    clock = project_wall_clock(session, workers=25)
    print("AUDIT")
    print(f"  {bill.summary()}")
    print(f"  predicted {plan.predicted_microtasks:,.0f} microtasks, "
          f"spent {bill.microtasks:,} "
          f"({bill.microtasks / plan.predicted_microtasks:.0%} of plan)")
    print(f"  projected duration: {clock.summary()}")
    print("  cost by phase (exclusive):")
    for row in report.phases:
        print(f"    {row['phase']:14s} {row['cost']:>8,} microtasks "
              f"{row['rounds']:>5,} rounds")
    print(f"  comparisons recorded: {report.total_comparisons:,} "
          f"({report.cached_comparisons} served from cache)")
    print("  three most expensive comparisons:")
    comparisons = [e for e in recorder.tail() if e["type"] == "comparison"]
    for event in sorted(comparisons, key=lambda e: -e["cost"])[:3]:
        print(f"    {event['phase']:12s} COMP({event['left']}, {event['right']}) "
              f"-> {event['outcome']:5s} +{event['cost']:,}")


if __name__ == "__main__":
    main()
