"""Parity of ``crowd-topk explain`` reports across changes to how they are built.

An explain report says which phase, item and comparison bought what
share of a query's TMC.  This suite pins the JSON report of the
``explain`` door for ``spr``, ``bdp`` and ``tournament`` on jester and
imdb (k=3, three seeds with 15 to 30 items each): method, top-k, totals,
comparison and cache-hit counts, budget cap, per-phase cost and rounds,
per-item costs, the unattributed remainder and every trail entry.

Three fields are left out, because they describe the trace model rather
than the query: a trail entry's ``phase`` (the phase that bought the
comparison), a phase row's ``comparisons`` (comparisons recorded under
that phase) and a phase row's ``seconds`` (wall time, which no fixture
can pin).

The expected documents (``tests/golden/explain_parity.json``) were
generated by ``scripts/gen_golden.py explain_parity`` on a tree whose
behaviour is known-good.  Regenerating is only legitimate when a change
alters what queries buy or how a report attributes it, on purpose, and
says why.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main

pytestmark = pytest.mark.faultfree  # reports pin fault-free purchases

GOLDEN_PATH = Path(__file__).parent / "golden" / "explain_parity.json"

METHODS = ("spr", "bdp", "tournament")
DATASETS = ("jester", "imdb")
#: ``(seed, n_items)`` per case; k is 3 throughout.
SEEDS = ((700_001, 15), (700_002, 22), (700_003, 30))
K = 3


def cases() -> list[str]:
    return [
        f"{method}-{dataset}-{seed}-{n_items}"
        for method in METHODS
        for dataset in DATASETS
        for seed, n_items in SEEDS
    ]


def explain_document(case: str) -> dict:
    """The ``explain --json`` report of ``case``, minus the unpinned fields."""
    method, dataset, seed, n_items = case.split("-")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([
            "explain", "--dataset", dataset, "--method", method,
            "-k", str(K), "--n-items", n_items, "--seed", seed, "--json",
        ])
    assert status == 0, f"{case}: explain exited {status}"
    document = json.loads(out.getvalue())
    for row in document["phases"]:
        row.pop("comparisons")
        row.pop("seconds", None)
    for trail in document["trails"].values():
        for entry in trail:
            entry.pop("phase")
    return document


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "scripts/gen_golden.py explain_parity on a known-good tree"
        )
    return json.loads(GOLDEN_PATH.read_text())["reports"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_report_matches_golden(case, golden):
    expected = golden[case]
    actual = explain_document(case)
    diffs = [
        f"{case}:{field} expected {expected[field]!r} got {actual.get(field)!r}"
        for field in sorted(expected)
        if actual.get(field) != expected[field]
    ]
    diffs += [f"{case}: unexpected field {field!r}"
              for field in sorted(set(actual) - set(expected))]
    assert not diffs, "\n".join(diffs)
