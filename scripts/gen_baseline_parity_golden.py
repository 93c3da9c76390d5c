#!/usr/bin/env python
"""Regenerate ``tests/golden/baseline_parity.json``.

Run this ONLY on a tree whose baselines are known-good: the fixture pins
bit-for-bit what seeded ``pbr``, ``heapsort``, ``quickselect`` and
``fullsort`` queries buy (see ``tests/test_baseline_parity.py``).
Regeneration must be justified in the change that does it.

Usage::

    python scripts/gen_baseline_parity_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.test_baseline_parity import GOLDEN_PATH, case_ids, run_case  # noqa: E402


def main() -> None:
    cases = {
        f"{method}:{dataset}:{seed}": run_case(method, dataset, seed)
        for method, dataset, seed in case_ids()
    }
    GOLDEN_PATH.write_text(
        json.dumps(
            {"description": "baseline query digests", "cases": cases},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(cases)} cases)", file=sys.stderr)


if __name__ == "__main__":
    main()
