"""Telemetry primitives: registry arithmetic, quantiles, spans, sinks."""

import json
import math
import pickle
import re
import threading

import numpy as np
import pytest

from repro.telemetry import (
    JsonlSink,
    MetricsRegistry,
    get_registry,
    read_jsonl,
    set_registry,
    use_registry,
)
from repro.telemetry.registry import Histogram
from tests.conftest import make_latent_session


class TestCounters:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert registry.counter_value("requests_total") == 42

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_labels_partition_the_family(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", method="spr").inc(3)
        registry.counter("runs_total", method="pbr").inc(5)
        assert registry.counter_value("runs_total", method="spr") == 3
        assert registry.counter_value("runs_total", method="pbr") == 5
        assert registry.counter_value("runs_total") == 0

    def test_same_name_and_labels_is_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a=1) is registry.counter("c", a=1)

    def test_counter_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("f_total", mode="a").inc(2)
        registry.counter("f_total", mode="b").inc(3)
        registry.counter("f_total").inc(1)
        assert registry.counter_total("f_total") == 6
        assert registry.counter_total("absent_total") == 0


class TestThreadSafety:
    def test_concurrent_creation_and_exposition(self):
        registry = MetricsRegistry()
        errors = []

        def hammer(worker):
            try:
                for i in range(200):
                    registry.counter("c_total", worker=worker, i=i % 7).inc()
                    registry.expose_text()
                    registry.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert registry.counter_total("c_total") == 800

    def test_registry_pickles_without_lock_or_listeners(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        registry.add_listener(lambda event: None)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter_value("c_total") == 3
        clone.counter("c_total").inc()  # the lock is recreated on unpickle
        clone.expose_text()
        assert clone.counter_value("c_total") == 4

    def test_pickling_and_reset_drop_the_open_spans(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            clone = pickle.loads(pickle.dumps(registry))
            registry.reset()
            with clone.span("inner"), registry.span("fresh"):
                pass
        assert [(s.name, s.parent) for s in clone.spans] == [("inner", None)]
        assert [(s.name, s.parent) for s in registry.spans] == [
            ("fresh", None), ("outer", None),
        ]


class TestEvents:
    def test_emit_broadcasts_to_listeners(self):
        registry = MetricsRegistry()
        registry.emit("dropped")  # no listeners: a free no-op
        seen = []
        registry.add_listener(seen.append)
        registry.emit("fault", mode="loss", count=2)
        assert seen == [{"type": "fault", "mode": "loss", "count": 2}]


class TestGauges:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("active_pairs")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_quantiles_match_numpy_exactly_below_reservoir(self):
        rng = np.random.default_rng(7)
        values = rng.normal(50, 12, size=1000)
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-12
            )

    def test_count_sum_min_max_mean(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_reservoir_keeps_quantiles_close_on_long_streams(self):
        rng = np.random.default_rng(11)
        hist = Histogram("h", reservoir=256)
        values = rng.uniform(0, 1, size=20_000)
        for value in values:
            hist.observe(value)
        assert hist.count == 20_000
        # The reservoir's seed is fixed by the name, so this stream always
        # keeps the same sample: it reads 0.5049 and 0.9536.  The bound is
        # well under one standard error of a 256-sample median (~0.03).
        assert hist.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        assert hist.quantile(0.95) == pytest.approx(0.95, abs=0.02)

    def test_empty_histogram_is_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)


class TestSpans:
    def test_nested_spans_record_parent_and_depth(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        names = [(s.name, s.parent, s.depth) for s in registry.spans]
        assert names == [("inner", "outer", 1), ("outer", None, 0)]

    def test_session_spans_attribute_cost_exclusively(self):
        session = make_latent_session([0.0, 3.0, 6.0])
        with use_registry() as registry:
            with registry.span("outer", session=session) as outer:
                session.charge_cost(5)
                with registry.span("inner", session=session) as inner:
                    session.charge_cost(7)
                session.charge_cost(2)
        assert inner.cost == 7
        assert outer.cost == 14
        assert outer.child_cost == 7
        assert outer.exclusive_cost == 7
        assert outer.exclusive_cost + inner.exclusive_cost == session.total_cost

    def test_threads_nest_their_own_spans(self):
        # Two queries on one registry, each in its own thread, with their
        # spans open at the same time: each nests under its own parent,
        # and each session reports its own open spans to a third thread.
        registry = MetricsRegistry()
        step = threading.Barrier(3, timeout=30)
        sessions = {
            name: make_latent_session([0.0, 3.0, 6.0]) for name in ("a", "b")
        }

        def query(name):
            session = sessions[name]
            with registry.span(f"{name}.outer", session=session):
                step.wait()  # both outer spans open
                with registry.span(f"{name}.inner", session=session):
                    session.charge_cost(5)
                    step.wait()  # both inner spans open
                    step.wait()  # the main thread has read progress
                session.charge_cost(2)

        with use_registry(registry):
            threads = [
                threading.Thread(target=query, args=(name,)) for name in sessions
            ]
            for thread in threads:
                thread.start()
            step.wait()
            step.wait()
            progress = {name: s.progress() for name, s in sessions.items()}
            step.wait()
            for thread in threads:
                thread.join(timeout=30)

        for name in sessions:
            assert progress[name]["open_spans"] == [f"{name}.outer", f"{name}.inner"]
            assert progress[name]["phase"] == f"{name}.inner"
            assert sessions[name].open_spans == []
        spans = {span.name: span for span in registry.spans}
        for name in sessions:
            inner, outer = spans[f"{name}.inner"], spans[f"{name}.outer"]
            assert (inner.parent, inner.depth) == (outer.name, 1)
            assert (outer.parent, outer.depth) == (None, 0)
            assert (outer.exclusive_cost, inner.exclusive_cost) == (2, 5)
            assert outer.exclusive_seconds >= 0

    def test_span_survives_exceptions(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in registry.spans] == ["doomed"]

    def test_span_seconds_histogram_fed(self):
        registry = MetricsRegistry()
        with registry.span("phase"):
            pass
        hist = registry.histogram("span_seconds", span="phase")
        assert hist.count == 1

    def test_span_cap_counts_drops(self):
        registry = MetricsRegistry()
        registry.MAX_SPANS = 2
        for _ in range(4):
            with registry.span("s"):
                pass
        assert len(registry.spans) == 2
        assert registry.dropped_spans == 2


PROMETHEUS_LINE = re.compile(
    r"^(?:# HELP [a-zA-Z_:][a-zA-Z0-9_:]* \S.*"
    r"|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})? (?:NaN|[+-]Inf|[-+0-9.eE]+))$"
)


class TestExposition:
    def test_expose_text_parses_as_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("crowd_microtasks_total").inc(1234)
        registry.counter("runs_total", method="spr", dataset="jester").inc(2)
        registry.gauge("active_pairs").set(7.5)
        for value in range(100):
            registry.histogram("workload", phase="rank").observe(value)
        text = registry.expose_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert PROMETHEUS_LINE.match(line), line

    def test_expose_text_values_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("c_total", method="spr").inc(3)
        text = registry.expose_text()
        assert "# TYPE c_total counter" in text
        assert 'c_total{method="spr"} 3' in text

    def test_histograms_render_as_summaries(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        text = registry.expose_text()
        assert "# TYPE h summary" in text
        assert 'h{quantile="0.5"} 1' in text
        assert "h_sum 1" in text
        assert "h_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", path='a"b\\c').inc()
        assert 'c_total{path="a\\"b\\\\c"} 1' in registry.expose_text()

    def test_help_line_precedes_type_for_catalog_metrics(self):
        registry = MetricsRegistry()
        registry.counter("crowd_microtasks_total").inc(5)
        lines = registry.expose_text().splitlines()
        help_idx = lines.index(
            "# HELP crowd_microtasks_total "
            "Judgments purchased (total monetary cost)."
        )
        assert lines[help_idx + 1] == "# TYPE crowd_microtasks_total counter"

    def test_describe_overrides_catalog_help(self):
        registry = MetricsRegistry()
        registry.counter("crowd_microtasks_total").inc()
        registry.describe("crowd_microtasks_total", "Custom text.")
        text = registry.expose_text()
        assert "# HELP crowd_microtasks_total Custom text." in text
        assert "Judgments purchased" not in text

    def test_help_text_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("weird_total").inc()
        registry.describe("weird_total", "line one\nback\\slash")
        text = registry.expose_text()
        assert "# HELP weird_total line one\\nback\\\\slash" in text
        for line in text.splitlines():
            assert PROMETHEUS_LINE.match(line), line

    def test_undescribed_custom_metric_has_no_help_line(self):
        registry = MetricsRegistry()
        registry.counter("anonymous_total").inc()
        text = registry.expose_text()
        assert "# TYPE anonymous_total counter" in text
        assert "# HELP anonymous_total" not in text

    def test_summary_table_mentions_everything(self):
        registry = MetricsRegistry()
        registry.counter("crowd_microtasks_total").inc(9)
        registry.histogram("workload").observe(4)
        with registry.span("spr.rank"):
            pass
        table = registry.summary_table()
        assert "crowd_microtasks_total" in table
        assert "workload" in table
        assert "spr.rank" in table


class TestSnapshotAndJsonl:
    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total", method="spr").inc(4)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.5)
        with registry.span("phase"):
            pass
        snapshot = json.loads(json.dumps(registry.snapshot()))
        counters = {c["name"]: c for c in snapshot["counters"]}
        assert counters["c_total"]["value"] == 4
        assert counters["c_total"]["labels"] == {"method": "spr"}
        assert snapshot["histograms"][0]["count"] == 1
        assert snapshot["spans"][0]["name"] == "phase"

    def test_jsonl_sink_streams_spans_and_snapshot(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        registry = MetricsRegistry()
        with JsonlSink(path) as sink:
            registry.add_listener(sink.write_event)
            registry.counter("c_total").inc(2)
            with registry.span("phase.a"):
                pass
            sink.write_snapshot(registry)
        events = read_jsonl(path)
        kinds = [event["type"] for event in events]
        assert kinds[0] == "span"
        assert kinds[-1] == "snapshot"
        span = events[0]
        assert span["name"] == "phase.a"
        snapshot = events[-1]
        assert snapshot["counters"][0]["value"] == 2
        assert {e["name"] for e in events if e["type"] == "counter"} == {"c_total"}

    def test_sink_is_lazy(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlSink(path).close()
        assert not path.exists()


class TestRegistryInjection:
    def test_use_registry_scopes_and_restores(self):
        before = get_registry()
        with use_registry() as scoped:
            assert get_registry() is scoped
            assert scoped is not before
        assert get_registry() is before

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)

    def test_session_override_beats_global(self):
        from repro.crowd.oracle import LatentScoreOracle
        from repro.crowd.session import CrowdSession

        private = MetricsRegistry()
        session = CrowdSession(
            LatentScoreOracle(np.array([0.0, 4.0])), seed=0, telemetry=private
        )
        with use_registry() as scoped:
            session.compare(1, 0)
        assert private.counter_value("crowd_comparisons_total") == 1
        assert scoped.counter_value("crowd_comparisons_total") == 0

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        with registry.span("s"):
            pass
        registry.reset()
        assert registry.snapshot()["counters"] == []
        assert registry.spans == []


class TestRegistryMerge:
    """merge(): counters add, gauges last-write, histograms combine,
    spans concatenate — the reconciliation the parallel engine relies on."""

    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("total", method="spr").inc(3)
        b.counter("total", method="spr").inc(4)
        b.counter("total", method="heap").inc(2)
        a.merge(b)
        assert a.counter_value("total", method="spr") == 7
        assert a.counter_value("total", method="heap") == 2
        # the source registry is untouched
        assert b.counter_value("total", method="spr") == 4

    def test_gauges_last_write_wins(self):
        a, b, c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        a.gauge("active").set(1)
        b.gauge("active").set(5)
        c.gauge("active").set(2)
        a.merge(b, c)
        assert a.gauge("active").value == 2

    def test_histograms_combine_exactly_below_reservoir(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.histogram("work").observe(v)
        for v in (10.0, 20.0):
            b.histogram("work").observe(v)
        a.merge(b)
        hist = a.histogram("work")
        assert hist.count == 5
        assert hist.sum == 36.0
        assert hist.min == 1.0 and hist.max == 20.0
        assert hist.quantile(1.0) == 20.0
        assert hist.quantile(0.0) == 1.0

    def test_histogram_merge_matches_serial_observation_order(self):
        serial = MetricsRegistry()
        part_a, part_b = MetricsRegistry(), MetricsRegistry()
        for v in range(10):
            serial.histogram("work").observe(float(v))
            (part_a if v < 5 else part_b).histogram("work").observe(float(v))
        merged = MetricsRegistry().merge(part_a, part_b)
        assert merged.histogram("work").percentiles() == (
            serial.histogram("work").percentiles()
        )

    def test_histogram_merge_beyond_reservoir_keeps_exact_moments(self):
        small = Histogram("work", reservoir=8)
        other = Histogram("work", reservoir=8)
        for v in range(6):
            small.observe(float(v))
        for v in range(6, 20):
            other.observe(float(v))
        small.merge_from(other)
        assert small.count == 20
        assert small.sum == sum(range(20))
        assert small.min == 0.0 and small.max == 19.0
        assert len(small._values) == 8  # capped, deterministic reservoir

    def test_empty_histogram_merge_is_noop(self):
        a = MetricsRegistry()
        a.histogram("work").observe(1.0)
        a.merge(MetricsRegistry())
        assert a.histogram("work").count == 1

    def test_spans_concatenate_in_merge_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        with a.span("first"):
            pass
        with b.span("second"):
            pass
        with b.span("third"):
            pass
        a.merge(b)
        assert [s.name for s in a.spans] == ["first", "second", "third"]

    def test_span_overflow_counts_as_dropped(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        with b.span("late"):
            pass
        b.dropped_spans = 3
        original_cap = MetricsRegistry.MAX_SPANS
        MetricsRegistry.MAX_SPANS = 0
        try:
            a.merge(b)
        finally:
            MetricsRegistry.MAX_SPANS = original_cap
        assert a.spans == []
        assert a.dropped_spans == 4  # 1 overflow + 3 inherited

    def test_merge_into_self_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.merge(registry)

    def test_merge_returns_self_for_chaining(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("x").inc()
        assert a.merge(b) is a

    def test_merged_snapshot_equals_serial_snapshot(self):
        """Two halves of a workload merged == the same workload serial."""
        serial = MetricsRegistry()
        halves = [MetricsRegistry(), MetricsRegistry()]
        for index, target in enumerate([serial, serial, halves[0], halves[1]]):
            target.counter("runs_total").inc()
            target.histogram("cost").observe(float(index % 2))
            target.gauge("phase").set(index % 2)
        merged = MetricsRegistry().merge(*halves)
        assert merged.snapshot() == serial.snapshot()


class TestBatchedInstruments:
    """The batch twins (``Counter.add``, ``Histogram.observe_many``) must be
    indistinguishable from N sequential single-event calls."""

    def test_counter_add_equals_n_incs(self):
        registry = MetricsRegistry()
        registry.counter("batched_total").add(137)
        for _ in range(137):
            registry.counter("sequential_total").inc()
        assert registry.counter_value("batched_total") == registry.counter_value(
            "sequential_total"
        )

    def test_counter_add_zero_and_negative(self):
        counter = MetricsRegistry().counter("c")
        counter.add(0)
        assert counter.value == 0
        with pytest.raises(ValueError):
            counter.add(-3)

    def test_observe_many_bit_identical_below_reservoir(self):
        values = np.random.default_rng(3).normal(10.0, 4.0, 200).tolist()
        batched, sequential = Histogram("a"), Histogram("b")
        batched.observe_many(values)
        for value in values:
            sequential.observe(value)
        # sum accumulates in observation order — float addition is not
        # associative, so these match only if the batch path keeps the
        # sequential left-to-right reduction.
        assert batched.sum == sequential.sum
        assert batched.count == sequential.count
        assert (batched.min, batched.max) == (sequential.min, sequential.max)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert batched.quantile(q) == sequential.quantile(q)

    def test_observe_many_past_reservoir_matches_sequential(self):
        values = np.random.default_rng(5).uniform(0, 1, 900).tolist()
        batched, sequential = Histogram("a", reservoir=256), Histogram(
            "b", reservoir=256
        )
        # Split the stream so the batch call straddles the reservoir cap.
        batched.observe_many(values[:200])
        batched.observe_many(values[200:])
        for value in values:
            sequential.observe(value)
        assert batched.count == sequential.count
        assert batched.sum == sequential.sum
        assert (batched.min, batched.max) == (sequential.min, sequential.max)

    def test_observe_many_keeps_the_reservoir_sequence(self):
        # One name, so both reservoirs draw the same randrange stream;
        # batches that fill, straddle and overrun the cap must admit and
        # replace exactly the values a loop of observe calls does.
        values = np.random.default_rng(7).integers(0, 500, 700).astype(float)
        batched, sequential = (Histogram("w", reservoir=64) for _ in range(2))
        for batch in np.split(values.tolist(), [10, 64, 65, 300]):
            batched.observe_many(batch.tolist())
        for value in values.tolist():
            sequential.observe(value)
        assert batched._values == sequential._values
        assert (batched.count, batched.sum) == (sequential.count, sequential.sum)

    @pytest.mark.parametrize("reservoir", [None, 2])
    def test_observe_many_skips_nan_extremes_like_observe(self, reservoir):
        # observe never lets a NaN become min or max, also when it comes
        # first; both the reservoir-fits and the overflowing path must agree.
        for values in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [math.nan]):
            batched, sequential = (Histogram("n", reservoir=reservoir) for _ in range(2))
            batched.observe_many(values)
            for value in values:
                sequential.observe(value)
            assert (batched.min, batched.max) == (sequential.min, sequential.max)
        assert (batched.min, batched.max) == (math.inf, -math.inf)

    def test_observe_many_empty_is_noop(self):
        hist = Histogram("h")
        hist.observe_many([])
        assert hist.count == 0

    def test_has_listeners_tracks_subscription(self):
        registry = MetricsRegistry()
        assert not registry.has_listeners
        listener = lambda event: None
        registry.add_listener(listener)
        assert registry.has_listeners
        registry.remove_listener(listener)
        assert not registry.has_listeners
