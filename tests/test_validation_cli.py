"""End-to-end tests of ``crowd-topk validate``.

These drive :func:`repro.cli.main` exactly as CI's nightly leg does:
exit codes gate the job, ``--report`` is the machine-readable artifact,
``--telemetry`` the JSONL stream, and ``--jobs`` must not change any of
them.  Guarantee runs here use tiny replication counts — enough to prove
plumbing, deliberately below the 200-replication acceptance run.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def _validate(*extra: str) -> int:
    return main(["validate", *extra])


class TestExitCodes:
    def test_guarantee_breach_exits_nonzero(self, capsys):
        # 5 replications cannot certify α=0.05: Wilson UB(0, 5) ≈ 0.43.
        code = _validate(
            "--suite", "guarantees", "--replications", "5", "--alpha", "0.05"
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_invariants_suite_passes(self, capsys):
        assert _validate("--suite", "invariants") == 0
        assert "invariants:" in capsys.readouterr().out

    def test_golden_suite_is_gone(self, capsys):
        # Golden traces are pinned by tests/test_trace_parity.py instead.
        with pytest.raises(SystemExit) as exc:
            _validate("--suite", "golden")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "golden" in err

    def test_unwritable_telemetry_path_fails_before_running(self, tmp_path, capsys):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("file, not directory")
        code = _validate(
            "--suite", "invariants", "--telemetry", str(blocked / "out.jsonl")
        )
        assert code == 1
        assert "cannot write telemetry" in capsys.readouterr().err


class TestReportArtifact:
    def _run(self, tmp_path, *extra: str) -> dict:
        report = tmp_path / "report.json"
        report.parent.mkdir(parents=True, exist_ok=True)
        code = _validate(
            "--suite", "guarantees", "--replications", "6",
            "--alpha", "0.1", "--seed", "7", "--report", str(report), *extra,
        )
        payload = json.loads(report.read_text())
        assert code == (0 if payload["passed"] else 1)
        return payload

    def test_report_schema(self, tmp_path):
        payload = self._run(tmp_path)
        suite = payload["suites"]["guarantees"]
        assert suite["replications"] == 6 and suite["seed"] == 7
        names = {c["name"] for c in suite["checks"]}
        assert names == {
            "comparison", "partition", "spr_recall",
            "bdp_recall", "pac_comparison",
        }
        for check in suite["checks"]:
            assert check["alpha"] == 0.1
            assert 0.0 <= check["wilson_low"] <= check["wilson_high"] <= 1.0

    def test_jobs_do_not_change_the_report(self, tmp_path):
        serial = self._run(tmp_path / "serial", "--jobs", "1")
        pooled = self._run(tmp_path / "pooled", "--jobs", "2")
        assert serial == pooled

    def test_all_suites_appear_in_combined_report(self, tmp_path):
        report = tmp_path / "report.json"
        code = _validate(
            "--suite", "all", "--replications", "40", "--report", str(report),
        )
        payload = json.loads(report.read_text())
        assert set(payload["suites"]) == {"guarantees", "invariants"}
        assert code == (0 if payload["passed"] else 1)
        assert payload["suites"]["invariants"]["passed"]


class TestTelemetryStream:
    def test_jsonl_schema(self, tmp_path):
        stream = tmp_path / "telemetry.jsonl"
        code = _validate(
            "--suite", "guarantees", "--replications", "4",
            "--alpha", "0.1", "--telemetry", str(stream),
        )
        assert code in (0, 1)  # tiny run may breach; the stream must exist
        lines = [json.loads(l) for l in stream.read_text().splitlines()]
        assert lines, "telemetry stream is empty"
        # The final line is the full snapshot; metric lines precede it.
        snapshot = lines[-1]
        assert snapshot["type"] == "snapshot"
        assert {"counters", "gauges", "histograms", "spans"} <= set(snapshot)
        counter_lines = [l for l in lines if l.get("type") == "counter"]
        names = {l["name"] for l in counter_lines}
        assert "validation_replications_total" in names
        for line in counter_lines:
            assert set(line) >= {"name", "labels", "value"}
        rep = next(
            l for l in counter_lines
            if l["name"] == "validation_replications_total"
        )
        assert rep["labels"]["check"] in {
            "comparison", "partition", "spr_recall",
            "bdp_recall", "pac_comparison",
        }
        span_names = {s["name"] for s in snapshot["spans"]}
        assert "validation.guarantees" in span_names
