"""Bit-for-bit parity of the BDP paths the benchmark does not exercise.

``tests/test_dataset_parity.py`` pins ``bdp`` as the ``bdp_jester``
benchmark runs it: one pair per round, the confidence stopping rule, no
cap, ten items, never interrupted.  This suite pins the rest of the
loop: several disjoint pairs per round, the PAC stopping rule, a
``max_comparisons`` cap that ends the loop early, a 25-item query, and
a query killed mid-flight and resumed from its checkpoint.  Each case
pins the top-k, cost, rounds, comparisons, ties, and the float64 bits of
the final posterior shapes and ranking loss.

The expected values (``tests/golden/bdp_parity.json``) were generated by
``scripts/gen_golden.py bdp_parity`` on a tree whose BDP behaviour is
known-good.  A change to how BDP scores or buys pairs that moves any of
them changes the answers; regenerating is only legitimate when a change
alters BDP's semantics on purpose and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bdp import bdp_topk, resume_bdp_topk
from repro.config import ComparisonConfig, ResiliencePolicy
from repro.core.stopping import PACStopping
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import BudgetExhaustedError
from repro.service import QuerySpec, runner
from repro.telemetry import MetricsRegistry, use_registry

pytestmark = pytest.mark.faultfree  # bits pin fault-free traces

GOLDEN_PATH = Path(__file__).parent / "golden" / "bdp_parity.json"

N_ITEMS, K = 12, 4


def _oracle(n: int = N_ITEMS) -> LatentScoreOracle:
    scores = np.random.default_rng(13).normal(size=n) * 3.0
    return LatentScoreOracle(scores, GaussianNoise(0.8))


def _session(**kwargs) -> CrowdSession:
    config = ComparisonConfig(
        confidence=0.95, budget=200, min_workload=2, batch_size=10,
        resilience=ResiliencePolicy(),
    )
    return CrowdSession(_oracle(), config, seed=5, **kwargs)


def _digest(outcome, session: CrowdSession) -> dict:
    return {
        "topk": [int(i) for i in outcome.topk],
        "cost": int(outcome.cost),
        "rounds": int(outcome.rounds),
        "session_cost": int(session.total_cost),
        "session_rounds": int(session.total_rounds),
        "comparisons": int(outcome.extras["comparisons"]),
        "ties": int(outcome.extras["ties"]),
        "shapes": [float(a).hex() for a in outcome.extras["shapes"]],
        "loss": float(outcome.extras["loss"]).hex(),
    }


def _local(**bdp_kwargs) -> dict:
    session = _session()
    return _digest(bdp_topk(session, list(range(N_ITEMS)), K, **bdp_kwargs), session)


def _synthetic_25() -> dict:
    spec = QuerySpec(method="bdp", k=5, dataset="synthetic", n_items=25, seed=11)
    with use_registry(MetricsRegistry()) as registry:
        session, items = runner.session_for(spec, registry)
        return _digest(runner.execute_spec(session, spec, items), session)


def _resumed(tmp_dir: Path) -> dict:
    full = bdp_topk(_session(), list(range(N_ITEMS)), K)
    path = tmp_dir / "bdp.ckpt"
    killed = _session(max_total_cost=full.cost // 2)
    killed.enable_checkpoints(path, every=1)
    try:
        bdp_topk(killed, list(range(N_ITEMS)), K)
    except BudgetExhaustedError:
        pass
    else:  # pragma: no cover - the ceiling is half the full cost
        raise AssertionError("the cost ceiling did not stop the query")
    restored = CrowdSession.restore(path, _oracle())
    restored.cost.ceiling = None  # the kill was the ceiling, lift it
    return _digest(resume_bdp_topk(restored), restored)


def run_case(name: str, tmp_dir: Path) -> dict:
    """The digest of case ``name``; ``tmp_dir`` holds any checkpoint."""
    if name == "pairs_per_round_3":
        return _local(pairs_per_round=3)
    if name == "pac":
        return _local(stopping=PACStopping(epsilon=0.1, delta=0.1))
    if name == "max_comparisons_20":
        return _local(max_comparisons=20)
    if name == "synthetic_25":
        return _synthetic_25()
    if name == "kill_and_resume":
        return _resumed(tmp_dir)
    raise KeyError(name)


CASES = (
    "pairs_per_round_3",
    "pac",
    "max_comparisons_20",
    "synthetic_25",
    "kill_and_resume",
)


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "scripts/gen_golden.py bdp_parity on a known-good tree"
        )
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.mark.parametrize("name", CASES)
def test_case_matches_golden(name, golden, tmp_path):
    expected = golden[name]
    actual = run_case(name, tmp_path)
    diffs = [
        f"{name}:{field} expected {expected[field]!r} got {actual[field]!r}"
        for field in expected
        if actual[field] != expected[field]
    ]
    assert not diffs, "\n".join(diffs)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_cap_stops_the_loop_early(golden):
    # The cap case must end on the cap, not on an exhausted pair set.
    uncapped = golden["kill_and_resume"]["comparisons"]
    assert golden["max_comparisons_20"]["comparisons"] == 20 < uncapped
