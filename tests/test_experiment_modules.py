"""Tiny end-to-end runs of every table/figure module.

These keep each experiment's plumbing (columns, rows, notes, paper-shape
assertions where statistically safe at small scale) under test without the
full workloads — EXPERIMENTS.md records the real runs.
"""

import math

import pytest

from repro.experiments import (
    ExperimentParams,
    run_accuracy,
    run_appendix_d,
    run_non_confidence,
    run_peopleage,
    run_stein_vs_student,
    run_summary,
    run_sweet_spot,
    run_table3,
    run_table4,
    run_table7,
)

TINY = ExperimentParams(dataset="jester", n_items=25, k=3, n_runs=2, seed=0)


class TestTable3:
    def test_small_run_shape_and_ordering(self):
        report = run_table3(
            n_movies=8, confidences=(0.9,), graded_workloads=(50,),
            n_runs=1, seed=0, cap=30_000,
        )
        assert report.columns == ["1-a=0.9"]
        binary_w = report.rows["Binary/Hoeffding workload"][0]
        student_w = report.rows["Preference/Student workload"][0]
        stein_w = report.rows["Preference/Stein workload"][0]
        # the paper's headline: preference judgments need far fewer tasks
        assert binary_w > student_w
        assert binary_w > stein_w
        for label in ("Binary/Hoeffding", "Preference/Student", "Preference/Stein"):
            acc = report.rows[f"{label} accuracy"][0]
            assert 0.8 <= acc <= 1.0


class TestTable4:
    def test_columns_and_realized_changes(self):
        report = run_table4(TINY, changes=(0, 2))
        assert report.columns == ["times=0", "times=2"]
        assert report.rows["realized changes"][0] == 0
        assert all(w > 0 for w in report.rows["Work."])


class TestTable7:
    def test_small_matrix(self):
        report = run_table7(
            datasets=("jester",),
            methods=("spr", "quickselect", "pbr"),
            n_runs=1,
            seed=0,
        )
        row = report.rows["jester"]
        assert len(row) == 3
        spr_cost, qs_cost, pbr_cost = row
        assert pbr_cost > spr_cost  # PBR's appetite survives any scale

    def test_pbr_can_be_skipped(self):
        report = run_table7(
            datasets=("jester",),
            methods=("spr", "pbr"),
            n_runs=1,
            seed=0,
            pbr_datasets=(),
        )
        assert math.isnan(report.rows["jester"][1])


class TestFigureSweeps:
    def test_accuracy_panel(self):
        report = run_accuracy("k", TINY, values=(2, 3), methods=("spr",))
        assert report.columns == ["k=2", "k=3"]
        assert all(0.0 <= v <= 1.0 for v in report.rows["spr"])

    def test_budget_accuracy_collapses_when_tiny(self):
        # Figure 13's headline: B at the cold-start floor cannot separate
        # anything, so precision drops markedly below the default-B run.
        params = ExperimentParams(
            dataset="jester", n_items=30, k=5, n_runs=3, seed=2
        )
        report = run_accuracy("budget", params, values=(30, 1000), methods=("spr",))
        low_b = report.rows["spr (precision)"][0]
        high_b = report.rows["spr (precision)"][1]
        assert high_b >= low_b

    def test_summary(self):
        tmc, latency = run_summary(
            datasets=("jester",), methods=("spr", "heapsort"), n_runs=1, seed=0
        )
        assert tmc.columns == ["spr", "heapsort", "infimum"]
        row = tmc.rows["jester"]
        assert row[2] <= min(row[0], row[1])  # infimum is the floor

    def test_sweet_spot(self):
        report = run_sweet_spot(datasets=("jester",), values=(1.5, 2.0), n_runs=1)
        assert report.columns == ["c=1.5", "c=2.0"]
        assert all(v > 0 for v in report.rows["jester"])

    def test_stein_vs_student(self):
        report = run_stein_vs_student(
            dataset="jester", k_values=(3,), n_runs=1, n_items=25
        )
        ratio = report.rows["stein/student"][0]
        assert 0.3 < ratio < 3.0  # "analogous", not identical


class TestNonConfidence:
    def test_budget_matching(self):
        report = run_non_confidence(datasets=("jester",), n_runs=1, seed=0)
        assert report.columns == ["spr", "crowdbt", "hybrid", "hybrid_spr"]
        row = report.rows["jester"]
        assert all(0.0 <= v <= 1.0 for v in row)


class TestAppendixD:
    def test_gap_positive_everywhere(self):
        report = run_appendix_d()
        for label, row in report.rows.items():
            assert all(v > 0 for v in row), label
        assert any("positive everywhere" in note for note in report.notes)


class TestPeopleAge:
    def test_simulation_in_paper_ballpark(self):
        report = run_peopleage(n_runs=2, seed=0)
        tmc, ndcg, dollars = report.rows["SPR (ours)"]
        assert 2_000 < tmc < 30_000  # paper: 9,570
        assert ndcg > 0.8  # paper: 0.905
        assert dollars == pytest.approx(tmc * 0.001)


class TestRobustness:
    def test_cost_grows_with_spam(self):
        from repro.experiments import run_robustness

        report = run_robustness(
            spammer_rates=(0.0, 0.4), n_items=40, k=4,
            n_workers=20, n_runs=2, seed=0,
        )
        costs = report.rows["TMC"]
        ndcgs = report.rows["NDCG"]
        assert costs[1] > costs[0]
        assert min(ndcgs) > 0.6
