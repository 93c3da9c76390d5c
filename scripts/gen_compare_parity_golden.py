#!/usr/bin/env python
"""Regenerate ``tests/golden/compare_parity.json``.

Run this ONLY on a tree whose single comparisons are known-good: the
fixture pins what ``CrowdSession.compare`` buys and bills over a grid of
oracles, estimators, resilience policies and budget shapes (see
``tests/test_compare_parity.py``).  Regeneration must be justified in the
change that does it.  Each scenario is written on one line, so a
regeneration diff reads scenario by scenario.

Usage::

    PYTHONPATH=src:tests python scripts/gen_compare_parity_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from test_compare_parity import GOLDEN_PATH, run_scenario, scenario_ids  # noqa: E402


def main() -> None:
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


if __name__ == "__main__":
    main()
