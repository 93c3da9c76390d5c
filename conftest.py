"""Repo-level pytest configuration: tiers and shared options.

The suite is split into two explicit tiers (docs/testing.md):

* ``tier1`` — fast, deterministic, seed-pinned; the default selection
  (``addopts`` deselects ``statistical``) and the bar every PR must meet.
* ``statistical`` — multi-seed distributional tests; run with
  ``pytest -m statistical`` (their own CI leg).

Every collected test that is not explicitly marked ``statistical`` is
auto-marked ``tier1``, so ``-m tier1`` and the default selection agree
without sprinkling the marker over hundreds of existing tests.

The CI fault-injection leg re-runs tier1 with ``CROWD_TOPK_FAULT_RATE``
set, which makes every default-configured session run against an
unreliable platform (docs/robustness.md).  Tests whose expectations only
hold on a fault-free platform — golden pins, seed-pinned costs, exact
round arithmetic — carry the ``faultfree`` marker and are skipped on that
leg; everything else must pass under faults too.

The Hypothesis property tests belong to tier 1, so they search
derandomized: the ``tier1`` profile loaded below fixes each test's seed
(every test keeps its own ``max_examples``) and keeps no example
database.  The nightly CI job runs them randomized, with
``--hypothesis-profile randomized``, to keep looking for new examples.

``--jobs`` is registered here (not in ``benchmarks/conftest.py``) so that
tests, benchmarks, and combined invocations all share one definition —
pytest refuses to start when two conftests register the same option.
"""

from __future__ import annotations

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # a test extra: the benchmarks run without it
    pass
else:
    settings.register_profile("tier1", derandomize=True)
    settings.register_profile("randomized", derandomize=False)
    settings.load_profile("tier1")


def _ambient_fault_rate() -> float:
    raw = os.environ.get("CROWD_TOPK_FAULT_RATE", "").strip()
    try:
        return float(raw) if raw else 0.0
    except ValueError:
        return 0.0


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiment/validation runs (0 = one per "
        "CPU, default 1 = serial); results are bit-for-bit identical",
    )


def pytest_collection_modifyitems(config, items):
    skip_faultfree = (
        pytest.mark.skip(
            reason="expects a fault-free platform; CROWD_TOPK_FAULT_RATE is set"
        )
        if _ambient_fault_rate() > 0
        else None
    )
    for item in items:
        if item.get_closest_marker("statistical") is None:
            item.add_marker(pytest.mark.tier1)
        if skip_faultfree is not None and item.get_closest_marker("faultfree"):
            item.add_marker(skip_faultfree)
