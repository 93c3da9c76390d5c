#!/usr/bin/env python
"""Regenerate ``tests/golden/service_parity.json``.

Run this ONLY on a tree whose behaviour at the service door is
known-good: the fixture pins bit-for-bit what a two-tenant cold-then-warm
query sequence buys through a one-worker ``QueryService`` (see
``tests/test_service_parity.py``).  Regeneration must be justified in
the change that does it.

Usage::

    PYTHONPATH=src python scripts/gen_service_parity_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.test_service_parity import GOLDEN_PATH, RUNS, run_sequence  # noqa: E402


def main() -> None:
    runs = {name: run_sequence(entries) for name, entries in RUNS.items()}
    GOLDEN_PATH.write_text(
        json.dumps(
            {"description": "service-door cache reuse digests", "runs": runs},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(runs)} runs)", file=sys.stderr)


if __name__ == "__main__":
    main()
