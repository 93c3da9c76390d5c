"""Distributional parity of racing groups with the per-pair loop.

A racing group advances its pairs in lockstep rounds, so it consumes the
session RNG in a different order than one :meth:`CrowdSession.compare`
per pair, and any single seed's workloads differ.  What must hold is the
*distribution*: over many seeds a racing group buys the same expected
number of microtasks and reaches the same verdicts as the per-pair loop
(``tests.conftest.per_pair_compare_many``).  These tests are
``statistical`` tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.spr import spr_topk
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.datasets import load_dataset
from repro.experiments.params import ExperimentParams
from repro.metrics.ranking import top_k_recall
from tests.conftest import per_pair_compare_many

pytestmark = pytest.mark.statistical

SEEDS = 10
N_ITEMS = 24
GROUP = [(15, 0), (12, 2), (9, 5), (13, 4), (11, 6)]

#: Paired SPR runs of the TMC parity test, fixed in advance.  The per-seed
#: log-ratio SD on its cell is 0.291, so the 95% CI of the geometric-mean
#: ratio is about ±1.8% wide; it lands inside ±3% for about 79% of seed
#: sets when the true ratio is 1 and for about 2% when it is 1.03.
TMC_RUNS = 1000
TMC_BAND = (0.97, 1.03)


class TestRacingTmcParity:
    def test_spr_tmc_ratio_ci_within_three_percent(self, monkeypatch):
        # Each seed s gives both sides the same working set
        # (default_rng([s, 1])) and session stream (default_rng([s, 2]));
        # only the group engine differs.
        params = ExperimentParams(dataset="jester", n_items=30, k=5)
        dataset = load_dataset(params.dataset, seed=params.dataset_seed)
        config = params.spr_config()

        def runs() -> np.ndarray:
            """(TMC, recall@k) of each seed's query."""
            out = []
            for seed in range(TMC_RUNS):
                working = dataset.sample_items(
                    params.n_items, np.random.default_rng([seed, 1])
                )
                session = dataset.session(
                    config.comparison, seed=np.random.default_rng([seed, 2])
                )
                result = spr_topk(session, working.ids.tolist(), params.k, config)
                recall = top_k_recall(working, result.topk, params.k)
                out.append((session.total_cost, recall))
            return np.array(out)

        racing = runs()
        monkeypatch.setattr(CrowdSession, "compare_many", per_pair_compare_many)
        reference = runs()
        logs = np.log(racing[:, 0] / reference[:, 0])
        center = logs.mean()
        half = 1.96 * logs.std(ddof=1) / np.sqrt(TMC_RUNS)
        low, high = np.exp(center - half), np.exp(center + half)
        assert TMC_BAND[0] <= low and high <= TMC_BAND[1], (
            f"racing/per-pair TMC {np.exp(center):.4f}, "
            f"95% CI {low:.4f}-{high:.4f} leaves {TMC_BAND}"
        )
        # Parity of cost must not hide worse answers: recall agrees and
        # stays high.
        recall, reference_recall = racing[:, 1].mean(), reference[:, 1].mean()
        assert abs(recall - reference_recall) <= 0.15
        assert min(recall, reference_recall) >= 0.8

    def test_group_workloads_agree_in_expectation(self):
        # Direct group parity on a fixed group: expected spend and
        # verdict distribution, not per-seed equality.
        scores = np.linspace(0.0, 7.5, N_ITEMS)
        totals = {"racing": 0, "per_pair": 0}
        decided = {"racing": 0, "per_pair": 0}
        run = {
            "racing": CrowdSession.compare_many,
            "per_pair": per_pair_compare_many,
        }
        for seed in range(SEEDS):
            for side in totals:
                oracle = LatentScoreOracle(scores, GaussianNoise(1.5))
                config = ComparisonConfig(
                    confidence=0.95, budget=120, min_workload=5, batch_size=10,
                )
                session = CrowdSession(oracle, config, seed=seed)
                records = run[side](session, GROUP)
                totals[side] += session.total_cost
                decided[side] += sum(r.outcome.decided for r in records)
        assert totals["racing"] == pytest.approx(totals["per_pair"], rel=0.15)
        assert abs(decided["racing"] - decided["per_pair"]) <= SEEDS


class TestBDPGuaranteeChecks:
    """The second algorithm family's Monte-Carlo guarantees.

    Same philosophy as the group parity above: what BDP promises is
    distributional — a top-k recall and a PAC violation rate bounded by
    α — so it is pinned by many replications and a Wilson interval, not
    by a single seed.  These are the ``bdp_recall`` and
    ``pac_comparison`` cells the nightly guarantees job also runs.
    """

    def test_bdp_recall_and_pac_rates_stay_under_wilson_bound(self):
        from repro.validation.guarantees import run_guarantee_suite

        report = run_guarantee_suite(
            alphas=(0.05,),
            replications=120,
            n_jobs=4,
            checks=("bdp_recall", "pac_comparison"),
        )
        by_name = {check.name: check for check in report.checks}
        for name in ("bdp_recall", "pac_comparison"):
            check = by_name[name]
            assert check.trials >= 120, name
            assert check.wilson_high <= check.max_failure_rate, (
                f"{name}: {check.failures}/{check.trials} failures, "
                f"wilson95 upper {check.wilson_high:.4f} exceeds "
                f"{check.max_failure_rate:.4f}"
            )
        assert report.passed
