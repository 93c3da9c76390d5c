"""Telemetry wired through sessions, SPR, the runner, recorders and the CLI."""

import logging
import re

import numpy as np
import pytest

from repro.cli import main
from repro.core.spr import spr_topk
from repro.crowd.oracle import JudgmentOracle, BinaryOracle
from repro.errors import BudgetExhaustedError
from repro.experiments import ExperimentParams
from repro.experiments.runner import run_method
from repro.telemetry import FlightRecorder, use_registry, read_jsonl
from tests.conftest import make_latent_session

SCORES = [float(i) for i in range(20)]


def fresh_session(**kwargs):
    defaults = dict(sigma=0.5, min_workload=5, batch_size=10, budget=120)
    defaults.update(kwargs)
    return make_latent_session(SCORES, seed=3, **defaults)


class TestSessionInstrumentation:
    def test_compare_counters(self):
        with use_registry() as registry:
            session = fresh_session()
            session.compare(10, 0)
            session.compare(10, 0)  # cache replay
        assert registry.counter_value("crowd_comparisons_total") == 2
        assert registry.counter_value("crowd_cache_hits_total") == 1
        assert registry.counter_value("crowd_microtasks_total") == session.total_cost
        assert registry.histogram("crowd_comparison_workload").count == 2

    def test_budget_tie_counter(self):
        with use_registry() as registry:
            session = make_latent_session(
                [0.0, 0.001], sigma=3.0, min_workload=5, batch_size=10, budget=30
            )
            record = session.compare(1, 0)
        assert record.outcome.name == "TIE"
        assert registry.counter_value("crowd_budget_ties_total") == 1

    def test_microtasks_reconcile_with_pool_purchases(self):
        from repro.crowd.pool import RacingPool

        with use_registry() as registry:
            session = fresh_session()
            pool = RacingPool(session, [(i, 0) for i in range(1, 8)])
            pool.run_to_completion()
        assert registry.counter_value("crowd_microtasks_total") == session.total_cost
        assert registry.counter_value("crowd_pool_rounds_total") > 0

    def test_forked_session_reports_to_same_registry(self):
        with use_registry() as registry:
            session = fresh_session()
            fork = session.fork(budget=40)
            fork.compare(12, 1)
        assert registry.counter_value("crowd_comparisons_total") == 1
        assert registry.counter_value("crowd_microtasks_total") == session.total_cost


class TestSPRPhaseSpans:
    def test_phase_spans_reconcile_with_cost_ledger(self):
        with use_registry() as registry:
            session = fresh_session()
            spr_topk(session, list(range(20)), 4)
        names = {span.name for span in registry.spans}
        assert {"spr.select", "spr.partition", "spr.rank"} <= names
        span_cost = sum(span.exclusive_cost or 0 for span in registry.spans)
        assert span_cost == session.total_cost
        assert span_cost == registry.counter_value("crowd_microtasks_total")

    def test_phase_spans_reconcile_rounds(self):
        with use_registry() as registry:
            session = fresh_session()
            spr_topk(session, list(range(20)), 4)
        span_rounds = sum(span.exclusive_rounds or 0 for span in registry.spans)
        assert span_rounds == session.total_rounds

    def test_deferments_counted(self):
        with use_registry() as registry:
            session = make_latent_session(
                [0.0, 0.01, 0.02, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
                sigma=3.0, min_workload=5, batch_size=10, budget=20,
            )
            spr_topk(session, list(range(10)), 3)
        # With a tiny per-pair budget and heavy noise some pairs must tie.
        assert registry.counter_value("spr_deferments_total") >= 0  # smoke
        assert registry.counter_value("crowd_microtasks_total") == session.total_cost


class TestRunnerInstrumentation:
    def test_runner_emits_per_run_metrics(self):
        with use_registry() as registry:
            params = ExperimentParams(
                dataset="jester", n_items=12, k=3, n_runs=2, seed=5
            )
            stats = run_method("spr", params)
        assert stats.n_runs == 2
        assert registry.counter_value("experiment_runs_total", method="spr") == 2
        hist = registry.histogram("experiment_run_wall_seconds", method="spr")
        assert hist.count == 2
        run_spans = [s for s in registry.spans if s.name == "experiment.run"]
        assert len(run_spans) == 2
        assert all(span.cost > 0 for span in run_spans)

    def test_spr_spans_nest_under_run_span(self):
        with use_registry() as registry:
            params = ExperimentParams(
                dataset="jester", n_items=12, k=3, n_runs=1, seed=5
            )
            run_method("spr", params)
        children = [s for s in registry.spans if s.parent == "experiment.run"]
        assert children, "SPR phase spans should nest under experiment.run"
        run_span = next(s for s in registry.spans if s.name == "experiment.run")
        assert run_span.child_cost == sum(
            s.cost for s in registry.spans if s.parent == "experiment.run"
        )


class TestTracingDetach:
    """A flight recorder's subscription to a session's comparisons."""

    def test_detach_stops_recording(self):
        session = fresh_session()
        recorder = FlightRecorder().attach(session=session)
        session.compare(10, 0)
        recorder.detach()
        session.compare(11, 0)
        assert recorder.events_seen == 1

    def test_double_attachment_does_not_double_count(self):
        session = fresh_session()
        recorder = FlightRecorder().attach(session=session)
        recorder.attach(session=session)  # second attachment must be a no-op
        session.compare(10, 0)
        assert recorder.events_seen == 1

    def test_detach_is_idempotent(self):
        session = fresh_session()
        recorder = FlightRecorder().attach(session=session)
        recorder.detach()
        recorder.detach()
        session.compare(10, 0)
        assert recorder.events_seen == 0

    def test_attach_to_second_session_requires_detach(self):
        session = fresh_session()
        other = fresh_session()
        recorder = FlightRecorder().attach(session=session)
        with pytest.raises(ValueError):
            recorder.attach(session=other)
        recorder.detach()
        recorder.attach(session=other)
        other.compare(10, 0)
        assert recorder.events_seen == 1

    def test_context_manager_detaches_and_finishes(self):
        session = fresh_session()
        with FlightRecorder().attach(session=session) as recorder:
            session.compare(10, 0)
        session.compare(11, 0)  # after the block: not recorded
        (event,) = recorder.tail()
        assert event["type"] == "comparison"
        assert event["phase"] is None  # no span was open

    def test_two_independent_traces_each_record_once(self):
        session = fresh_session()
        first = FlightRecorder().attach(session=session)
        second = FlightRecorder().attach(session=session)
        session.compare(10, 0)
        assert first.events_seen == 1
        assert second.events_seen == 1


class TestOracleAndWorkerCounters:
    def test_binary_oracle_counts_wasted_judgments(self):
        class ZeroThenOnes(JudgmentOracle):
            """First draw ties exactly, later draws separate."""

            bounds = (-1.0, 1.0)

            def __init__(self):
                self.calls = 0

            def draw_pairs(self, left, right, size, rng):
                self.calls += 1
                if self.calls == 1:
                    return np.zeros((len(left), size))
                return np.ones((len(left), size))

        with use_registry() as registry:
            oracle = BinaryOracle(ZeroThenOnes())
            out = oracle.draw(0, 1, 4, np.random.default_rng(0))
        assert np.all(out == 1)
        assert oracle.wasted == 4
        assert registry.counter_value("oracle_wasted_judgments_total") == 4

    def test_careless_workers_counted(self):
        from repro.crowd.workers import CarelessWorkerNoise

        with use_registry() as registry:
            noise = CarelessWorkerNoise(sigma=1.0, careless_rate=1.0)
            noise.sample(32, np.random.default_rng(0))
        assert registry.counter_value("worker_careless_judgments_total") == 32


class TestLogging:
    def test_budget_exhaustion_logged(self, caplog):
        session = make_latent_session(
            [0.0, 0.05], sigma=3.0, min_workload=5, batch_size=10, budget=500,
        )
        session.cost.ceiling = 20
        with caplog.at_level(logging.WARNING, logger="repro.crowd.ledger"):
            with pytest.raises(BudgetExhaustedError):
                session.compare(1, 0)
        assert any("budget exhausted" in r.message for r in caplog.records)

    def test_no_print_calls_in_library_code(self):
        import ast
        import pathlib
        import repro

        src = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.name == "cli.py":  # the CLI is the user interface
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, offenders


class TestCLITelemetry:
    def test_query_writes_jsonl_and_prints_summary(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        code = main(
            [
                "query", "--dataset", "jester", "--method", "spr",
                "-k", "3", "--n-items", "25", "--seed", "1",
                "--telemetry", str(path),
            ]
        )
        assert code == 0
        events = read_jsonl(path)
        span_names = {e["name"] for e in events if e["type"] == "span"}
        assert {"spr.select", "spr.partition", "spr.rank"} <= span_names

        snapshot = events[-1]
        assert snapshot["type"] == "snapshot"
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        out = capsys.readouterr().out
        tmc = int(re.search(r"TMC: ([\d,]+)", out).group(1).replace(",", ""))
        assert counters["crowd_microtasks_total"] == tmc
        span_cost = sum(
            e["exclusive_cost"] for e in events if e["type"] == "span"
        )
        assert span_cost == tmc
        assert "telemetry summary" in out
        assert "crowd_microtasks_total" in out

    def test_unwritable_telemetry_path_fails_fast(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(
            [
                "query", "--dataset", "jester", "--method", "spr",
                "-k", "3", "--n-items", "15", "--seed", "0",
                "--telemetry", str(blocker / "t.jsonl"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "cannot write telemetry" in captured.err
        assert "top-3" not in captured.out  # failed before the query ran

    def test_query_without_telemetry_stays_quiet(self, capsys):
        code = main(
            [
                "query", "--dataset", "jester", "--method", "quickselect",
                "-k", "2", "--n-items", "15", "--seed", "0",
            ]
        )
        assert code == 0
        assert "telemetry summary" not in capsys.readouterr().out

    def test_verbose_flag_configures_repro_logger(self, capsys):
        code = main(["-v", "datasets"])
        assert code == 0
        assert logging.getLogger("repro").level == logging.INFO


class TestInstrumentHandleCaching:
    """Hot-path counter handles are cached per registry, not per process.

    A session without its own registry and ``BinaryOracle`` hoist their
    ``counter()`` lookups onto cached handles; these regressions pin that
    the cache is keyed on registry *identity*, so ``use_registry`` scoping
    still lands counts in the active registry after the handle has been
    warmed elsewhere.
    """

    def test_comparator_handle_rebinds_on_registry_change(self):
        from repro.core.cache import JudgmentCache

        session = make_latent_session([0.0, 5.0], sigma=0.5, min_workload=4)
        with use_registry() as first:
            record = session.compare(1, 0)
        assert record.cost > 0
        drawn_first = first.counter_value("oracle_judgments_total")
        assert drawn_first >= record.cost

        # Same session, new scoped registry: the warmed handles must not
        # leak counts back into ``first``.
        session.use_cache(JudgmentCache())
        with use_registry() as second:
            record2 = session.compare(1, 0)
        assert record2.cost > 0
        assert second.counter_value("oracle_judgments_total") >= record2.cost
        assert second.counter_value("crowd_microtasks_total") == record2.cost
        assert first.counter_value("oracle_judgments_total") == drawn_first
        assert first.counter_value("crowd_microtasks_total") == record.cost

    def test_binary_oracle_handle_rebinds_on_registry_change(self):
        class ZeroThenOnes(JudgmentOracle):
            bounds = (-1.0, 1.0)

            def __init__(self):
                self.calls = 0

            def draw_pairs(self, left, right, size, rng):
                self.calls += 1
                if self.calls % 2 == 1:
                    return np.zeros((len(left), size))
                return np.ones((len(left), size))

        oracle = BinaryOracle(ZeroThenOnes())
        with use_registry() as first:
            oracle.draw(0, 1, 3, np.random.default_rng(0))
        assert first.counter_value("oracle_wasted_judgments_total") == 3

        with use_registry() as second:
            oracle.draw(0, 1, 5, np.random.default_rng(0))
        assert second.counter_value("oracle_wasted_judgments_total") == 5
        assert first.counter_value("oracle_wasted_judgments_total") == 3
