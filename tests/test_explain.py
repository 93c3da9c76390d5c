"""Explain reports: cost attribution that reconciles to the microtask."""

import json

import pytest

from repro import FlightRecorder, load_dataset, spr_topk
from repro.reports import explain_query
from repro.telemetry import MetricsRegistry, use_registry
from tests.conftest import make_latent_session

SCORES = [0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5, 12.0, 13.5]


def _traced_query(n_items=25, k=5, seed=2):
    dataset = load_dataset("jester")
    working = dataset.sample_items(n_items)
    with use_registry(MetricsRegistry()) as registry:
        session = dataset.session(seed=seed)
        with FlightRecorder(capacity=None).attach(session=session) as recorder:
            result = spr_topk(session, working.ids.tolist(), k=k)
        report = explain_query(session, recorder, result.topk, method="spr", k=k)
        microtasks = int(registry.counter_total("crowd_microtasks_total"))
    return session, report, microtasks


class TestReconciliation:
    def test_item_costs_sum_to_ledger_and_telemetry_exactly(self):
        session, report, microtasks = _traced_query()
        # The acceptance identity, to the microtask:
        assert report.attributed + report.unattributed == session.total_cost
        assert session.total_cost == microtasks
        assert report.reconciles(microtasks)
        assert report.total_cost == session.total_cost

    def test_unattributed_covers_the_selection_fork(self):
        # SPR's selection phase runs on a forked session whose compare
        # listeners are cleared, so its spending must land in the
        # unattributed bucket — never be silently lost.
        _, report, _ = _traced_query()
        select = [p for p in report.phases if p["phase"] == "spr.select"]
        assert select and select[0]["cost"] > 0
        assert report.unattributed >= select[0]["cost"]

    def test_phase_rows_come_from_spans_and_cover_all_spending(self):
        session, report, _ = _traced_query()
        names = {p["phase"] for p in report.phases}
        assert {"spr.select", "spr.partition", "spr.rank"} <= names
        # exclusive per-phase costs are disjoint, so they sum to the total
        assert sum(p["cost"] for p in report.phases) == session.total_cost
        # a row counts the comparisons recorded under it, not its spans
        assert sum(p["comparisons"] for p in report.phases) == (
            report.total_comparisons
        )
        assert all(p["seconds"] >= 0 for p in report.phases)

    def test_a_bounded_recorder_is_refused(self):
        session = make_latent_session([0.0, 8.0, 4.0], sigma=0.5, seed=1)
        recorder = FlightRecorder(capacity=1).attach(session=session)
        session.compare(0, 1)
        session.compare(2, 1)
        with pytest.raises(ValueError, match="capacity=None"):
            explain_query(session, recorder, (1,), k=1)


class TestTrails:
    def test_every_topk_member_has_a_trail_from_its_perspective(self):
        session = make_latent_session(SCORES, sigma=0.5, seed=5)
        with use_registry(MetricsRegistry()):
            with FlightRecorder(capacity=None).attach(session=session) as recorder:
                result = spr_topk(session, list(range(len(SCORES))), k=3)
            report = explain_query(session, recorder, result.topk, k=3)
        assert set(report.trails) == set(result.topk)
        for member, trail in report.trails.items():
            for entry in trail:
                assert entry.opponent != member
                assert entry.outcome in ("WIN", "LOSS", "TIE")

    def test_outcomes_flip_for_the_right_operand(self):
        session = make_latent_session([0.0, 8.0], sigma=0.5, seed=1)
        with FlightRecorder(capacity=None).attach(session=session) as recorder:
            session.compare(0, 1)  # item 1 should win as the right operand
        report = explain_query(session, recorder, (1,), k=1)
        (entry,) = report.trails[1]
        assert entry.opponent == 0
        assert entry.outcome == "WIN"


class TestRendering:
    def test_json_round_trips(self):
        _, report, _ = _traced_query(n_items=15, k=3)
        doc = json.loads(report.to_json())
        assert doc["k"] == 3
        assert doc["total_cost"] == report.total_cost
        assert doc["unattributed"] == report.unattributed
        assert len(doc["topk"]) == 3
        assert set(doc["trails"]) == {str(i) for i in report.topk}

    def test_text_report_shows_the_reconciliation_identity(self):
        _, report, _ = _traced_query(n_items=15, k=3)
        text = report.to_text()
        assert "[OK]" in text
        assert "unattributed" in text
        assert f"{report.total_cost:,}" in text

    def test_mismatch_is_reported_not_hidden(self):
        _, report, _ = _traced_query(n_items=15, k=3)
        assert not report.reconciles(report.total_cost + 1)


class TestCliExplain:
    def test_explain_exits_zero_and_reconciles(self, capsys):
        from repro.cli import main

        rc = main([
            "explain", "--dataset", "jester", "-k", "3",
            "--n-items", "15", "--budget", "300", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[OK]" in out

    def test_explain_json_output(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "report.json"
        rc = main([
            "explain", "--dataset", "jester", "-k", "3",
            "--n-items", "15", "--budget", "300", "--seed", "4",
            "--json", "--output", str(out_path),
        ])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(out_path.read_text())
        assert printed == on_disk
        assert printed["k"] == 3

    def test_explain_answers_what_run_query_answers(self, capsys):
        from repro.cli import _spec_from_args, build_parser, main
        from repro.service import run_query

        argv = [
            "explain", "--dataset", "jester", "--method", "bdp", "-k", "3",
            "--n-items", "15", "--budget", "300", "--seed", "4",
        ]
        assert main(argv + ["--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        outcome = run_query(_spec_from_args(build_parser().parse_args(argv)))
        assert printed["topk"] == list(outcome.topk)
        assert printed["total_cost"] == outcome.cost
