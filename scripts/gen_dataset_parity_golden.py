#!/usr/bin/env python
"""Regenerate ``tests/golden/dataset_parity.json``.

Run this ONLY on a tree whose behaviour on the dataset oracles is
known-good: the fixture pins bit-for-bit what seeded imdb and jester
queries buy (see ``tests/test_dataset_parity.py``).  Regeneration must be
justified in the change that does it.

Usage::

    PYTHONPATH=src:tests python scripts/gen_dataset_parity_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from test_dataset_parity import GOLDEN_PATH, case_ids, run_case  # noqa: E402


def main() -> None:
    cases = {f"{name}:{seed}": run_case(name, seed) for name, seed in case_ids()}
    GOLDEN_PATH.write_text(
        json.dumps(
            {"description": "dataset-oracle query digests", "cases": cases},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(cases)} cases)", file=sys.stderr)


if __name__ == "__main__":
    main()
