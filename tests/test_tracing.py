"""The per-query trace: recorded comparisons, their phases, and exports.

A query's trace is the comparison events a
:class:`~repro.telemetry.FlightRecorder` captures from its session, each
stamped with the phase (innermost open span) it resolved in, plus the
registry's spans; :func:`~repro.reports.explain_query` renders both.
"""

import json

import pytest

from repro.core.spr import spr_topk
from repro.reports import explain_query
from repro.telemetry import FlightRecorder, MetricsRegistry, use_registry
from tests.conftest import make_latent_session

SCORES = [float(i) for i in range(12)]


def clean_session(seed=0, **kwargs):
    defaults = dict(sigma=0.4, min_workload=5, batch_size=10, budget=100)
    defaults.update(kwargs)
    return make_latent_session(SCORES, seed=seed, **defaults)


@pytest.fixture(autouse=True)
def registry():
    """A private registry, so phase rows see only this test's spans."""
    with use_registry(MetricsRegistry()) as fresh:
        yield fresh


def record(session):
    return FlightRecorder(capacity=None).attach(session=session)


def comparisons(recorder):
    return [e for e in recorder.tail() if e["type"] == "comparison"]


class TestEventCapture:
    def test_every_compare_is_recorded(self):
        session = clean_session()
        recorder = record(session)
        session.compare(5, 0)
        session.compare(9, 1)
        events = comparisons(recorder)
        assert len(events) == 2
        assert events[0]["left"] == 5
        assert events[0]["outcome"] == "LEFT"
        assert events[1]["total_cost"] == session.total_cost

    def test_group_comparisons_traced_too(self):
        session = clean_session()
        recorder = record(session)
        session.compare_many([(5, 0), (9, 1)])
        assert len(comparisons(recorder)) == 2

    def test_cached_comparisons_flagged(self):
        session = clean_session()
        recorder = record(session)
        session.compare(5, 0)
        session.compare(5, 0)
        first, second = comparisons(recorder)
        assert not first["from_cache"]
        assert second["from_cache"] and second["cost"] == 0

    @pytest.mark.faultfree  # exact per-pair costs shift under faults
    def test_most_expensive_orders_by_cost(self):
        session = make_latent_session(
            [0.0, 5.0, 5.05], sigma=2.0,
            min_workload=5, batch_size=10, budget=300,
        )
        recorder = record(session)
        session.compare(1, 0)   # easy: gap 5
        session.compare(2, 1)   # near-tie: gap 0.05
        top = max(comparisons(recorder), key=lambda e: e["cost"])
        assert top["left"] == 2

    def test_record_return_value_passthrough(self):
        session = clean_session()
        record(session)
        result = session.compare(5, 0)
        assert result.winner == 5


class TestPhases:
    def test_phase_totals_reconcile_with_ledgers(self, registry):
        session = clean_session()
        recorder = record(session)
        with registry.span("warmup", session=session):
            session.compare(5, 0)
        with registry.span("main", session=session):
            session.compare(9, 1)
            session.compare(11, 2)
        session.compare(10, 3)  # outside every span

        assert [e["phase"] for e in comparisons(recorder)] == [
            "warmup", "main", "main", None,
        ]
        report = explain_query(session, recorder, (11,), k=1)
        rows = {row["phase"]: row for row in report.phases}
        assert rows["warmup"]["comparisons"] == 1
        assert rows["main"]["comparisons"] == 2
        assert rows["query"]["comparisons"] == 1
        assert rows["query"]["seconds"] is None  # no span timed it
        assert sum(row["cost"] for row in rows.values()) == session.total_cost

    def test_full_spr_query_traced(self):
        session = clean_session()
        recorder = record(session)
        result = spr_topk(session, list(range(12)), 3)
        events = comparisons(recorder)
        assert events
        assert {e["phase"] for e in events} <= {"spr.rank", "spr.partition"}
        # The racing pool buys in bulk: the phase rows still reconcile.
        report = explain_query(session, recorder, result.topk, k=3)
        assert sum(row["cost"] for row in report.phases) == session.total_cost
        assert sum(row["comparisons"] for row in report.phases) == len(events)


class TestExports:
    def test_text_rendering_and_truncation(self):
        session = clean_session()
        recorder = record(session)
        for item in range(1, 12):
            session.compare(item, 0)
        report = explain_query(session, recorder, (0,), k=1)
        text = report.to_text(trail_limit=5)
        assert "... 6 more" in text
        assert "vs 1 " in text

    def test_json_export(self, tmp_path):
        session = clean_session()
        recorder = record(session)
        session.compare(5, 0)
        payload = json.loads(recorder.dump(tmp_path / "trace.json").read_text())
        (event,) = payload["events"]
        assert event["left"] == 5
        assert event["phase"] is None
