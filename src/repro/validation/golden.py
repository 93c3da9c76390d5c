"""Golden-trace harness — structural snapshots of comparison streams.

Seed-pinned tests assert on a handful of numbers and go stale the moment
an implementation detail shifts RNG consumption.  Golden traces pin the
*whole observable behavior* of a scenario instead: every
:class:`~repro.core.comparison.ComparisonRecord` the session emits, the
end-of-run summary, and the telemetry counters, serialized to JSON and
diffed **structurally** — integers and outcomes exactly, floats to a
tolerance, ``NaN`` equal to ``NaN`` — rather than by blanket float
equality.  A diff names the first divergent record and field, which turns
"test_seed_table failed" into "record 7 of racing_group changed workload
60 → 50".

Two things golden traces deliberately do *not* capture:

* wall-clock (spans carry timings; traces only keep deterministic data);
* records emitted inside :meth:`~repro.crowd.session.CrowdSession.fork`
  children (forks clear compare listeners by design) or racing pools used
  directly by partitioning — the SPR case therefore pins the phase
  *summaries* and counters, which cover that spending.

Re-pinning is explicit: ``crowd-topk validate --suite golden
--update-golden`` rewrites the files; docs/testing.md describes when that
is safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..config import ComparisonConfig, SPRConfig
from ..core.comparison import ComparisonRecord
from ..core.spr import spr_topk
from ..crowd.oracle import LatentScoreOracle
from ..crowd.session import CrowdSession
from ..crowd.workers import GaussianNoise
from ..errors import ConfigError
from ..telemetry import MetricsRegistry, get_registry, use_registry

__all__ = [
    "GoldenReport",
    "GoldenTrace",
    "TraceRecorder",
    "default_golden_cases",
    "diff_traces",
    "run_golden_suite",
    "DEFAULT_GOLDEN_DIR",
]

#: Repo-relative location of the pinned traces (the CLI default).
DEFAULT_GOLDEN_DIR = Path("tests") / "golden"

#: Relative tolerance for float fields when diffing.
FLOAT_TOL = 1e-6

#: Counters worth pinning: they summarize spending and racing.
_PINNED_COUNTERS = (
    "crowd_comparisons_total",
    "crowd_microtasks_total",
    "crowd_cache_hits_total",
    "crowd_budget_ties_total",
    "oracle_judgments_total",
    "crowd_pool_rounds_total",
)


class TraceRecorder:
    """Compare listener that serializes every record it sees."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def __call__(self, session: CrowdSession, record: ComparisonRecord) -> None:
        self.records.append(record_to_dict(record))


def record_to_dict(record: ComparisonRecord) -> dict:
    """A JSON-safe structural view of one record (NaN → None)."""
    return {
        "left": int(record.left),
        "right": int(record.right),
        "outcome": record.outcome.name,
        "workload": int(record.workload),
        "cost": int(record.cost),
        "rounds": int(record.rounds),
        "mean": None if math.isnan(record.mean) else float(record.mean),
        "std": None if math.isnan(record.std) else float(record.std),
    }


@dataclass(frozen=True)
class GoldenTrace:
    """One scenario's pinned behavior: records, summary, counters."""

    name: str
    records: tuple[dict, ...]
    summary: dict
    counters: dict
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "meta": self.meta,
            "records": list(self.records),
            "summary": self.summary,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GoldenTrace":
        return cls(
            name=payload["name"],
            records=tuple(payload.get("records", ())),
            summary=dict(payload.get("summary", {})),
            counters=dict(payload.get("counters", {})),
            meta=dict(payload.get("meta", {})),
        )


def _floats_differ(a: float, b: float, tol: float) -> bool:
    return abs(a - b) > tol * max(1.0, abs(a), abs(b))


def _diff_value(path: str, expected: object, actual: object, tol: float) -> str | None:
    if expected is None and actual is None:
        return None
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(
            actual, (int, float)
        ):
            return f"{path}: expected {expected!r}, got {actual!r}"
        if _floats_differ(float(expected), float(actual), tol):
            return f"{path}: expected {expected!r}, got {actual!r}"
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def diff_traces(
    expected: GoldenTrace, actual: GoldenTrace, float_tol: float = FLOAT_TOL
) -> list[str]:
    """Structural differences between two traces (empty = match).

    Integer fields, outcomes, and counters compare exactly; floats within
    ``float_tol`` (relative above 1.0); ``None`` (serialized NaN) only
    matches ``None``.  The first divergent record is named by index and
    field so a failure points straight at the behavioral change.
    """
    diffs: list[str] = []
    if len(expected.records) != len(actual.records):
        diffs.append(
            f"records: expected {len(expected.records)} comparison records, "
            f"got {len(actual.records)}"
        )
    for idx, (exp, act) in enumerate(zip(expected.records, actual.records)):
        for key in sorted(set(exp) | set(act)):
            diff = _diff_value(
                f"records[{idx}].{key}", exp.get(key), act.get(key), float_tol
            )
            if diff is not None:
                diffs.append(diff)
    for section_name, exp_section, act_section in (
        ("summary", expected.summary, actual.summary),
        ("counters", expected.counters, actual.counters),
    ):
        for key in sorted(set(exp_section) | set(act_section)):
            if key not in exp_section:
                diffs.append(f"{section_name}.{key}: unexpected new entry "
                             f"{act_section[key]!r}")
                continue
            if key not in act_section:
                diffs.append(f"{section_name}.{key}: missing "
                             f"(expected {exp_section[key]!r})")
                continue
            diff = _diff_value(
                f"{section_name}.{key}", exp_section[key], act_section[key],
                float_tol,
            )
            if diff is not None:
                diffs.append(diff)
    return diffs


# ----------------------------------------------------------------------
# the pinned scenarios
# ----------------------------------------------------------------------
def _pinned_counters(registry: MetricsRegistry) -> dict:
    return {
        name: int(registry.counter_value(name)) for name in _PINNED_COUNTERS
    }


def _comp_chain_case() -> GoldenTrace:
    """Sequential COMP calls: fresh pairs, a replay, and a flipped replay."""
    scores = np.array([0.0, 1.0, 2.0, 3.5, 5.0])
    oracle = LatentScoreOracle(scores, GaussianNoise(1.0))
    config = ComparisonConfig(
        confidence=0.95, budget=200, min_workload=5, batch_size=10
    )
    with use_registry(MetricsRegistry()) as registry:
        session = CrowdSession(oracle, config, seed=1234)
        recorder = TraceRecorder()
        session.add_compare_listener(recorder)
        for pair in [(4, 0), (3, 1), (1, 2), (4, 0), (0, 4), (2, 1)]:
            session.compare(*pair)
        summary = {
            "total_cost": session.total_cost,
            "total_rounds": session.total_rounds,
            "cached_pairs": session.cache.pair_count,
            "cached_samples": session.cache.total_samples,
        }
        counters = _pinned_counters(registry)
    return GoldenTrace(
        name="comp_chain",
        records=tuple(recorder.records),
        summary=summary,
        counters=counters,
        meta={"seed": 1234, "scores": scores.tolist()},
    )


def _racing_group_case() -> GoldenTrace:
    """One racing compare_many group with an in-group repeat."""
    scores = np.array([0.0, 0.8, 1.6, 2.4, 3.2, 4.0])
    oracle = LatentScoreOracle(scores, GaussianNoise(1.2))
    config = ComparisonConfig(
        confidence=0.95, budget=120, min_workload=5, batch_size=10
    )
    pairs = [(5, 0), (4, 1), (3, 2), (0, 5)]
    with use_registry(MetricsRegistry()) as registry:
        session = CrowdSession(oracle, config, seed=4321)
        recorder = TraceRecorder()
        session.add_compare_listener(recorder)
        session.compare_many(pairs)
        summary = {
            "total_cost": session.total_cost,
            "total_rounds": session.total_rounds,
            "cached_pairs": session.cache.pair_count,
            "cached_samples": session.cache.total_samples,
        }
        counters = _pinned_counters(registry)
    return GoldenTrace(
        name="racing_group",
        records=tuple(recorder.records),
        summary=summary,
        counters=counters,
        meta={"seed": 4321, "scores": scores.tolist(), "pairs": pairs},
    )


def _spr_small_case() -> GoldenTrace:
    """A full SPR query, pinned by phase summaries and counters.

    Selection forks the session (listeners cleared) and partitioning races
    pools without per-pair records, so the record stream covers only the
    ranking comparisons the outer session runs; the summary and counters
    pin everything else.
    """
    rng = np.random.default_rng(99)
    scores = rng.normal(0.0, 3.0, 12)
    oracle = LatentScoreOracle(scores, GaussianNoise(1.0))
    config = ComparisonConfig(
        confidence=0.95, budget=150, min_workload=5, batch_size=10
    )
    with use_registry(MetricsRegistry()) as registry:
        session = CrowdSession(oracle, config, seed=77)
        recorder = TraceRecorder()
        session.add_compare_listener(recorder)
        result = spr_topk(session, list(range(12)), 3, SPRConfig(sweet_spot=1.5))
        part = result.partition_result
        summary = {
            "topk": [int(i) for i in result.topk],
            "cost": int(result.cost),
            "rounds": int(result.rounds),
            "recursed": bool(result.recursed),
            "reference": int(part.reference) if part is not None else None,
            "winners": len(part.winners) if part is not None else None,
            "ties": len(part.ties) if part is not None else None,
            "losers": len(part.losers) if part is not None else None,
            "reference_changes": (
                int(part.reference_changes) if part is not None else None
            ),
        }
        counters = _pinned_counters(registry)
    return GoldenTrace(
        name="spr_small",
        records=tuple(recorder.records),
        summary=summary,
        counters=counters,
        meta={"dataset_seed": 99, "session_seed": 77, "n": 12, "k": 3},
    )


def default_golden_cases() -> dict:
    """The built-in scenarios, name → zero-argument trace factory."""
    return {
        "comp_chain": _comp_chain_case,
        "racing_group": _racing_group_case,
        "spr_small": _spr_small_case,
    }


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoldenReport:
    """Per-case diffs of the golden suite (empty diff list = match)."""

    diffs: dict
    updated: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(not case_diffs for case_diffs in self.diffs.values())

    def to_dict(self) -> dict:
        return {
            "suite": "golden",
            "passed": self.passed,
            "cases": {name: list(d) for name, d in self.diffs.items()},
            "updated": list(self.updated),
        }

    def to_text(self) -> str:
        lines = []
        for name in sorted(self.diffs):
            case_diffs = self.diffs[name]
            verdict = "PASS" if not case_diffs else f"FAIL ({len(case_diffs)} diffs)"
            lines.append(f"golden {name}: {verdict}")
            for diff in case_diffs[:10]:
                lines.append(f"  {diff}")
            if len(case_diffs) > 10:
                lines.append(f"  ... {len(case_diffs) - 10} more")
        for name in self.updated:
            lines.append(f"golden {name}: re-pinned")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def trace_path(golden_dir: Path | str, name: str) -> Path:
    return Path(golden_dir) / f"{name}.json"


def load_trace(path: Path) -> GoldenTrace:
    with open(path, encoding="utf-8") as handle:
        return GoldenTrace.from_dict(json.load(handle))


def save_trace(trace: GoldenTrace, golden_dir: Path | str) -> Path:
    path = trace_path(golden_dir, trace.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_golden_suite(
    golden_dir: Path | str = DEFAULT_GOLDEN_DIR,
    update: bool = False,
    cases: dict | None = None,
    float_tol: float = FLOAT_TOL,
) -> GoldenReport:
    """Re-run every pinned scenario and diff it against its golden file.

    ``update=True`` rewrites the files instead of diffing (the explicit
    re-pin path).  A missing golden file is a failure, with the re-pin
    command spelled out in the diff message.
    """
    cases = cases if cases is not None else default_golden_cases()
    golden_dir = Path(golden_dir)
    registry = get_registry()
    diffs: dict = {}
    updated: list[str] = []
    with registry.span("validation.golden", cases=len(cases), update=update):
        for name, factory in sorted(cases.items()):
            actual = factory()
            if actual.name != name:
                raise ConfigError(
                    f"golden case {name!r} produced a trace named "
                    f"{actual.name!r}"
                )
            registry.counter("validation_golden_cases_total").inc()
            if update:
                save_trace(actual, golden_dir)
                updated.append(name)
                diffs[name] = []
                continue
            path = trace_path(golden_dir, name)
            if not path.exists():
                diffs[name] = [
                    f"missing golden file {path}; pin it with "
                    "`crowd-topk validate --suite golden --update-golden`"
                ]
                continue
            case_diffs = diff_traces(load_trace(path), actual, float_tol)
            diffs[name] = case_diffs
            if case_diffs:
                registry.counter("validation_golden_diffs_total").inc(
                    len(case_diffs)
                )
    report = GoldenReport(diffs=diffs, updated=tuple(updated))
    if not report.passed:
        registry.counter("validation_suite_failures_total", suite="golden").inc()
    return report
