"""BDP ranker: determinism, checkpoint/resume, stopping.

The contract under test mirrors the SPR one (tests/test_checkpoint.py):
the same seed yields bit-identical verdicts and costs across repeat
runs, and a query killed mid-flight
resumes from its checkpoint, in-process or in a fresh interpreter, to
the identical top-k at the identical total cost.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bdp import MAX_ITEMS, BDPRanker, bdp_topk, resume_bdp_topk
from repro.config import ComparisonConfig, ResiliencePolicy
from repro.core.stopping import (
    ConfidenceStopping,
    PACStopping,
    stopping_from_document,
)
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import AlgorithmError, BudgetExhaustedError, ConfigError
from tests.conftest import make_latent_session

REPO_ROOT = Path(__file__).resolve().parent.parent

N_ITEMS, K = 12, 4


def fresh_oracle(n=N_ITEMS, seed=13, sigma=0.8):
    scores = np.random.default_rng(seed).normal(size=n) * 3.0
    return LatentScoreOracle(scores, GaussianNoise(sigma))


def fresh_session(**kwargs):
    # Explicit zero-fault policy: these expectations must not shift when
    # the CI fault leg exports CROWD_TOPK_FAULT_RATE.
    config = ComparisonConfig(
        confidence=0.95, budget=200, min_workload=2, batch_size=10,
        resilience=ResiliencePolicy(),
    )
    return CrowdSession(fresh_oracle(), config, seed=5, **kwargs)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        results = [
            bdp_topk(fresh_session(), list(range(N_ITEMS)), K)
            for _ in range(2)
        ]
        first, second = results
        assert first.topk == second.topk
        assert first.cost == second.cost
        assert first.rounds == second.rounds
        assert first.extras["comparisons"] == second.extras["comparisons"]
        assert first.extras["shapes"] == second.extras["shapes"]

    def test_outcome_reports_stopping_diagnostics(self):
        result = bdp_topk(fresh_session(), list(range(N_ITEMS)), K)
        assert result.method == "bdp"
        assert len(result.topk) == K
        assert result.extras["stopping"]["kind"] == "confidence"
        assert isinstance(result.extras["stopping_satisfied"], bool)
        assert result.extras["loss"] >= 0.0

    def test_max_comparisons_caps_total_purchases(self):
        result = bdp_topk(
            fresh_session(), list(range(N_ITEMS)), K, max_comparisons=5
        )
        assert result.extras["comparisons"] <= 5
        assert result.extras["stopping_satisfied"] is False

    def test_k_equals_n_answers_for_free(self):
        result = bdp_topk(fresh_session(), list(range(N_ITEMS)), N_ITEMS)
        assert sorted(result.topk) == list(range(N_ITEMS))
        assert result.cost == 0
        assert result.extras["comparisons"] == 0

    def test_ranker_rank_matches_function_form(self):
        ranker = BDPRanker(stopping=ConfidenceStopping(alpha=0.05))
        via_ranker = ranker.rank(fresh_session(), list(range(N_ITEMS)), K)
        via_function = bdp_topk(
            fresh_session(), list(range(N_ITEMS)), K,
            stopping=ConfidenceStopping(alpha=0.05),
        )
        assert via_ranker.topk == via_function.topk
        assert via_ranker.cost == via_function.cost

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pairs_per_round=0),
            dict(max_comparisons=0),
            dict(prior_shape=0.0),
            dict(boundary_pad=-1),
        ],
    )
    def test_knob_validation(self, kwargs):
        with pytest.raises(AlgorithmError):
            BDPRanker(**kwargs)


class TestStoppingRules:
    def test_confidence_roundtrips_through_document(self):
        rule = ConfidenceStopping(alpha=0.07)
        assert stopping_from_document(rule.to_document()) == rule

    def test_pac_roundtrips_through_document(self):
        rule = PACStopping(epsilon=0.2, delta=0.1)
        assert stopping_from_document(rule.to_document()) == rule

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigError):
            stopping_from_document({"kind": "vibes"})

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ConfidenceStopping(alpha=0.0),
            lambda: ConfidenceStopping(alpha=1.0),
            lambda: PACStopping(epsilon=0.5, delta=0.1),
            lambda: PACStopping(epsilon=-0.1, delta=0.1),
            lambda: PACStopping(epsilon=0.1, delta=0.0),
        ],
    )
    def test_parameter_validation(self, factory):
        with pytest.raises(ConfigError):
            factory()

    def test_vacuously_satisfied_when_no_rival_exists(self):
        shapes = np.ones(3)
        assert ConfidenceStopping(alpha=0.05).satisfied(shapes, 3)
        assert PACStopping(epsilon=0.1, delta=0.05).satisfied(shapes, 3)

    def test_separation_satisfies_uniformity_does_not(self):
        separated = np.array([40.0, 35.0, 0.5, 0.4])
        uniform = np.ones(4)
        rule = ConfidenceStopping(alpha=0.05)
        assert rule.satisfied(separated, 2)
        assert not rule.satisfied(uniform, 2)
        pac = PACStopping(epsilon=0.2, delta=0.05)
        assert pac.satisfied(separated, 2)
        assert not pac.satisfied(uniform, 2)


class TestPACEstimator:
    def test_pac_session_decides_a_clear_gap(self):
        session = make_latent_session(
            [0.0, 3.0], sigma=0.5, estimator="pac", pac_epsilon=0.2
        )
        record = session.compare(1, 0)
        assert record.winner == 1

    def test_zero_epsilon_never_decides_an_exact_tie(self):
        session = make_latent_session(
            [1.0, 1.0], sigma=1.0, estimator="pac", budget=60
        )
        record = session.compare(1, 0)
        assert record.winner is None

    def test_negative_epsilon_is_rejected(self):
        with pytest.raises(ConfigError):
            ComparisonConfig(pac_epsilon=-0.1)

    def test_bdp_runs_under_pac_stopping(self):
        result = bdp_topk(
            fresh_session(), list(range(N_ITEMS)), K,
            stopping=PACStopping(epsilon=0.3, delta=0.1),
        )
        assert len(result.topk) == K
        assert result.extras["stopping"]["kind"] == "pac"


class TestRestoreInProcess:
    def test_killed_query_resumes_to_identical_result(self, tmp_path):
        baseline = fresh_session()
        expected = bdp_topk(baseline, list(range(N_ITEMS)), K)

        path = tmp_path / "kill.ckpt"
        killed = fresh_session(max_total_cost=expected.cost // 2)
        killed.enable_checkpoints(path, every=1)
        with pytest.raises(BudgetExhaustedError):
            bdp_topk(killed, list(range(N_ITEMS)), K)
        assert path.exists()

        restored = CrowdSession.restore(path, fresh_oracle())
        restored.cost.ceiling = None  # the kill was the ceiling, lift it
        result = resume_bdp_topk(restored)
        assert result.topk == expected.topk
        assert restored.total_cost == baseline.total_cost
        assert restored.total_rounds == baseline.total_rounds
        # Zero re-purchased microtasks: every charged task is in the
        # cache exactly once, just like in the baseline run.
        assert restored.cache.total_samples == restored.cost.microtasks
        assert restored.cache.total_samples == baseline.cache.total_samples

    def test_oversized_query_is_refused_before_any_purchase(self):
        n = MAX_ITEMS + 1
        session = make_latent_session(np.zeros(n), seed=0)
        with pytest.raises(AlgorithmError, match="at most"):
            bdp_topk(session, list(range(n)), 3)
        session.restored_state = {"query": {"bdp": {"items": list(range(n))}}}
        with pytest.raises(AlgorithmError, match="at most"):
            resume_bdp_topk(session)
        assert session.total_cost == 0

    def test_resume_without_restored_state_raises(self):
        with pytest.raises(AlgorithmError):
            resume_bdp_topk(fresh_session())

    def test_resume_from_foreign_checkpoint_raises(self, tmp_path):
        session = make_latent_session([0.0, 2.0], seed=0)
        session.compare(1, 0)
        path = tmp_path / "bare.ckpt"
        session.checkpoint(path)
        restored = CrowdSession.restore(path, fresh_oracle(n=2))
        with pytest.raises(AlgorithmError):
            resume_bdp_topk(restored)


#: Driver used by the fresh-process test below, mirroring the SPR one in
#: tests/test_checkpoint.py: three modes share one deterministic query so
#: the parent test can diff their JSON outputs.
_DRIVER = """
import json, sys
import numpy as np
from repro.algorithms.bdp import bdp_topk, resume_bdp_topk
from repro.config import ComparisonConfig, ResiliencePolicy
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import BudgetExhaustedError

mode, path = sys.argv[1], sys.argv[2]

def fresh_oracle():
    scores = np.random.default_rng(13).normal(size=12) * 3.0
    return LatentScoreOracle(scores, GaussianNoise(0.8))

config = ComparisonConfig(
    confidence=0.95, budget=200, min_workload=2, batch_size=10,
    resilience=ResiliencePolicy(),
)

if mode == "baseline":
    session = CrowdSession(fresh_oracle(), config, seed=5)
    result = bdp_topk(session, list(range(12)), 4)
    print(json.dumps({
        "topk": list(result.topk),
        "cost": session.total_cost,
        "rounds": session.total_rounds,
        "cached": session.cache.total_samples,
    }))
elif mode == "kill":
    ceiling = int(sys.argv[3])
    session = CrowdSession(fresh_oracle(), config, seed=5, max_total_cost=ceiling)
    session.enable_checkpoints(path, every=1)
    try:
        bdp_topk(session, list(range(12)), 4)
    except BudgetExhaustedError:
        print("killed")
        sys.exit(0)
    print("never tripped")
    sys.exit(1)
elif mode == "resume":
    session = CrowdSession.restore(path, fresh_oracle())
    session.cost.ceiling = None
    result = resume_bdp_topk(session)
    print(json.dumps({
        "topk": list(result.topk),
        "cost": session.total_cost,
        "rounds": session.total_rounds,
        "cached": session.cache.total_samples,
    }))
"""


def _run_driver(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("CROWD_TOPK_FAULT_RATE", None)  # the query must be reproducible
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestFreshProcessResume:
    def test_kill_and_resume_across_processes(self, tmp_path):
        """Checkpoint mid-query, die, restore in a brand-new interpreter,
        finish with the identical top-k at the identical total cost."""
        path = tmp_path / "xproc.ckpt"
        baseline = json.loads(_run_driver("baseline", path))
        _run_driver("kill", path, max(baseline["cost"] // 2, 1))
        assert path.exists()
        resumed = json.loads(_run_driver("resume", path))
        assert resumed["topk"] == baseline["topk"]
        assert resumed["cost"] == baseline["cost"]
        assert resumed["rounds"] == baseline["rounds"]
        assert resumed["cached"] == baseline["cached"]
        assert resumed["cached"] == resumed["cost"]
