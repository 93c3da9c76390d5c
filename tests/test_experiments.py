"""Experiment harness: params, reporting, runner, and tiny end-to-end sweeps."""

import pytest

from repro.errors import AlgorithmError, ConfigError
from repro.experiments import (
    ExperimentParams,
    Report,
    run_infimum,
    run_method,
    run_methods,
)
from repro.experiments.runner import MethodStats, RunRecord
from repro.experiments.scalability import run_scalability

# A tiny cell every runner test shares: 20 jester items, 2 runs.
SMALL = dict(dataset="jester", n_items=20, k=3, n_runs=2, seed=0)


class TestParams:
    def test_defaults_match_table6(self):
        params = ExperimentParams()
        assert params.k == 10
        assert params.confidence == 0.98
        assert params.budget == 1000
        assert params.batch_size == 30
        assert params.sweet_spot == 1.5

    def test_config_derivation(self):
        params = ExperimentParams(confidence=0.9, budget=500)
        config = params.comparison_config()
        assert config.confidence == 0.9
        assert config.budget == 500
        spr = params.spr_config()
        assert spr.comparison == config

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentParams(k=0)
        with pytest.raises(ConfigError):
            ExperimentParams(n_items=10, k=10)
        with pytest.raises(ConfigError):
            ExperimentParams(n_runs=0)

    def test_with_copies(self):
        params = ExperimentParams()
        assert params.with_(k=5).k == 5
        assert params.k == 10


class TestReport:
    def test_row_width_validated(self):
        report = Report(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            report.add_row("bad", [1])

    def test_text_rendering(self):
        report = Report(title="My table", columns=["x=1", "x=2"])
        report.add_row("method", [1234, 0.567])
        report.add_note("hello")
        text = report.to_text()
        assert "My table" in text
        assert "1,234" in text
        assert "0.567" in text
        assert "note: hello" in text

    def test_nan_renders_as_dash(self):
        report = Report(title="t", columns=["c"])
        report.add_row("r", [float("nan")])
        assert "-" in report.to_text()


class TestRunner:
    def test_run_method_aggregates(self):
        stats = run_method("spr", ExperimentParams(**SMALL))
        assert isinstance(stats, MethodStats)
        assert stats.n_runs == 2
        assert stats.mean_cost > 0
        assert 0.0 <= stats.mean_ndcg <= 1.0
        assert all(isinstance(r, RunRecord) for r in stats.runs)

    def test_deterministic_given_seed(self):
        a = run_method("tournament", ExperimentParams(**SMALL))
        b = run_method("tournament", ExperimentParams(**SMALL))
        assert a.mean_cost == b.mean_cost
        assert a.mean_ndcg == b.mean_ndcg

    def test_different_seeds_differ(self):
        a = run_method("spr", ExperimentParams(**SMALL))
        b = run_method("spr", ExperimentParams(**{**SMALL, "seed": 9}))
        assert a.mean_cost != b.mean_cost

    def test_unknown_method_rejected(self):
        with pytest.raises(AlgorithmError):
            run_method("bogosort", ExperimentParams(**SMALL))

    def test_run_methods_covers_all(self):
        results = run_methods(["spr", "heapsort"], ExperimentParams(**SMALL))
        assert set(results) == {"spr", "heapsort"}

    def test_infimum_below_methods(self):
        params = ExperimentParams(**SMALL)
        infimum = run_infimum(params)
        spr = run_method("spr", params)
        assert infimum.mean_cost <= spr.mean_cost

    def test_subset_ground_truth_used(self):
        # NDCG must be computed against the subset's own ground truth:
        # a perfect run on a subset scores 1.0 even though global ranks differ.
        stats = run_method(
            "spr",
            ExperimentParams(dataset="jester", n_items=15, k=2, n_runs=2, seed=1),
        )
        assert stats.mean_ndcg > 0.5


class TestScalabilitySweep:
    def test_reports_shapes(self):
        params = ExperimentParams(**SMALL)
        tmc, latency = run_scalability(
            "k", params, values=(2, 3), methods=("spr", "quickselect")
        )
        assert tmc.columns == ["k=2", "k=3"]
        assert set(tmc.rows) == {"spr", "quickselect", "infimum"}
        assert set(latency.rows) == set(tmc.rows)

    def test_invalid_cells_skipped(self):
        params = ExperimentParams(dataset="jester", k=10, n_runs=1, seed=0)
        tmc, _ = run_scalability(
            "n", params, values=(5, 50), methods=("quickselect",),
            include_infimum=False,
        )
        assert tmc.columns == ["N=50"]  # N=5 < k is dropped

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ConfigError):
            run_scalability("zoom", ExperimentParams(**SMALL))


class TestReportExports:
    def _report(self):
        report = Report(title="t", columns=["a", "b"])
        report.add_row("r1", [1, 2.5])
        report.add_row("r2", [float("nan"), 4])
        report.add_note("n1")
        return report

    def test_to_dict_roundtrip(self):
        data = self._report().to_dict()
        assert data["title"] == "t"
        assert data["columns"] == ["a", "b"]
        assert data["rows"]["r1"] == [1, 2.5]
        assert data["notes"] == ["n1"]

    def test_to_json_serializes_nan_as_null(self):
        import json

        payload = json.loads(self._report().to_json())
        assert payload["rows"]["r2"][0] is None
        assert payload["rows"]["r1"] == [1, 2.5]

    def test_to_csv(self):
        text = self._report().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "label,a,b"
        assert lines[1] == "r1,1,2.5"


class TestNSweepDeduplication:
    def test_oversized_subset_values_collapse_to_all(self):
        params = ExperimentParams(dataset="jester", k=3, n_runs=1, seed=0)
        tmc, _ = run_scalability(
            "n", params, values=(50, 150, 800, None),
            methods=("quickselect",), include_infimum=False,
        )
        # jester has 100 items: 150, 800 and None all mean "All" → one column
        assert tmc.columns == ["N=50", "N=All"]
