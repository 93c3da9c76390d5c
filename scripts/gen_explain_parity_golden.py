#!/usr/bin/env python
"""Regenerate ``tests/golden/explain_parity.json``.

Run this ONLY on a tree whose explain reports are known-good: the
fixture pins the ``crowd-topk explain --json`` report of every case in
``tests/test_explain_parity.py`` (all fields but trail ``phase`` and
phase-row ``comparisons`` and ``seconds``).  Regeneration must be
justified in the change that does it.

Usage::

    PYTHONPATH=src python scripts/gen_explain_parity_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.test_explain_parity import GOLDEN_PATH, cases, explain_document  # noqa: E402


def main() -> None:
    reports = {case: explain_document(case) for case in cases()}
    GOLDEN_PATH.write_text(
        json.dumps(
            {"description": "crowd-topk explain --json reports", "reports": reports},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(reports)} reports)", file=sys.stderr)


if __name__ == "__main__":
    main()
