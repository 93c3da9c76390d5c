#!/usr/bin/env python
"""Regenerate the parity goldens under ``tests/golden/``.

Each golden pins what a tier-1 parity test, ``tests/test_<NAME>.py``,
compares the tree against; each writer below runs that module's own
cases and writes its file.  Run this ONLY on a tree whose behaviour is
known-good: regenerating is legitimate only when a change alters what is
bought on purpose, and the change must say why (docs/testing.md).

Usage::

    python scripts/gen_golden.py                              # every golden
    python scripts/gen_golden.py trace_parity explain_parity  # just these
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))


def _write(path: Path, description: str, key: str, cases: dict) -> None:
    path.write_text(
        json.dumps({"description": description, key: cases}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {path} ({len(cases)} {key})", file=sys.stderr)


def apply_parity() -> None:
    from tests.test_apply_parity import GOLDEN_PATH, SEEDS, run_case

    cases = {
        f"{variant}:{seed}": run_case(variant, seed)
        for variant in sorted(SEEDS)
        for seed in range(SEEDS[variant])
    }
    _write(GOLDEN_PATH, "apply-path bit-parity digests", "cases", cases)


def baseline_parity() -> None:
    from tests.test_baseline_parity import GOLDEN_PATH, case_ids, run_case

    cases = {
        f"{method}:{dataset}:{seed}": run_case(method, dataset, seed)
        for method, dataset, seed in case_ids()
    }
    _write(GOLDEN_PATH, "baseline query digests", "cases", cases)


def bdp_parity() -> None:
    from tests.test_bdp_parity import CASES, GOLDEN_PATH, run_case

    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(name, Path(tmp)) for name in CASES}
    _write(GOLDEN_PATH, "BDP paths off the benchmark", "cases", cases)


def compare_parity() -> None:
    # One scenario per line, so a regeneration diff reads scenario by scenario.
    from tests.test_compare_parity import GOLDEN_PATH, run_scenario, scenario_ids

    scenarios = scenario_ids()
    lines = [
        f"  {json.dumps(scenario)}: {json.dumps(run_scenario(scenario), sort_keys=True)}"
        for scenario in scenarios
    ]
    GOLDEN_PATH.write_text(
        '{\n "description": "CrowdSession.compare chains over a grid of '
        'oracles, estimators, resilience policies and (B, I, eta) shapes",\n'
        ' "cases": {\n' + ",\n".join(lines) + "\n }\n}\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(scenarios)} scenarios)", file=sys.stderr)


def dataset_parity() -> None:
    from tests.test_dataset_parity import GOLDEN_PATH, case_ids, run_case

    cases = {f"{name}:{seed}": run_case(name, seed) for name, seed in case_ids()}
    _write(GOLDEN_PATH, "dataset-oracle query digests", "cases", cases)


def explain_parity() -> None:
    from tests.test_explain_parity import GOLDEN_PATH, cases, explain_document

    reports = {case: explain_document(case) for case in cases()}
    _write(GOLDEN_PATH, "crowd-topk explain --json reports", "reports", reports)


def service_parity() -> None:
    from tests.test_service_parity import GOLDEN_PATH, RUNS, run_sequence

    runs = {name: run_sequence(entries) for name, entries in RUNS.items()}
    _write(GOLDEN_PATH, "service-door cache reuse digests", "runs", runs)


def trace_parity() -> None:
    # One file per trace: comp_chain.json, racing_group.json, spr_small.json.
    from tests.test_trace_parity import TRACES, golden_path

    for name, scenario in TRACES.items():
        path = golden_path(name)
        path.write_text(json.dumps(scenario(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)


WRITERS = {
    writer.__name__: writer
    for writer in (
        apply_parity,
        baseline_parity,
        bdp_parity,
        compare_parity,
        dataset_parity,
        explain_parity,
        service_parity,
        trace_parity,
    )
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"goldens to regenerate (default: all of {', '.join(WRITERS)})",
    )
    names = parser.parse_args(argv).names or list(WRITERS)
    unknown = sorted(set(names) - set(WRITERS))
    if unknown:
        parser.error(f"unknown golden(s): {', '.join(unknown)}")
    for name in names:
        WRITERS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
