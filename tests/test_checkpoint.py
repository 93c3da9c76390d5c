"""Checkpoint/resume: atomic persistence and bit-for-bit continuation.

The contract under test (docs/robustness.md): ``CrowdSession.checkpoint``
persists judgment cache, RNG state, ledgers and in-flight racing state
atomically; a session restored from that file — even in a *fresh
process* — finishes the query with the identical top-k at the identical
total cost, re-purchasing zero microtasks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import ComparisonConfig, FaultPolicy, ResiliencePolicy
from repro.core.spr import resume_spr_topk, spr_topk
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import BudgetExhaustedError, ConfigError
from repro.persistence import load_checkpoint, save_checkpoint
from tests.conftest import make_latent_session

REPO_ROOT = Path(__file__).resolve().parent.parent


def fresh_oracle(n=20, seed=13, sigma=0.8):
    scores = np.random.default_rng(seed).normal(size=n) * 3.0
    return LatentScoreOracle(scores, GaussianNoise(sigma))


def fresh_session(**kwargs):
    # Explicit zero-fault policy: these expectations must not shift when
    # the CI fault leg exports CROWD_TOPK_FAULT_RATE.
    config = ComparisonConfig(
        confidence=0.95, budget=400, min_workload=2, batch_size=10,
        resilience=ResiliencePolicy(),
    )
    return CrowdSession(fresh_oracle(), config, seed=5, **kwargs)


class TestPersistenceRoundtrip:
    def test_state_and_cache_survive(self, tmp_path):
        session = make_latent_session([0.0, 2.0, 4.0], seed=1)
        session.compare(2, 0)
        session.compare(1, 0)
        path = tmp_path / "session.ckpt"
        save_checkpoint(session.checkpoint_state(), session.cache, path)
        state, cache = load_checkpoint(path)
        assert state["rng_state"] == session.rng.bit_generator.state
        assert state["cost"]["microtasks"] == session.cost.microtasks
        assert state["latency"]["rounds"] == session.latency.rounds
        assert cache.total_samples == session.cache.total_samples
        for (i, j) in ((2, 0), (1, 0)):
            np.testing.assert_array_equal(cache.bag(i, j), session.cache.bag(i, j))

    def test_no_tmp_file_left_behind(self, tmp_path):
        session = make_latent_session([0.0, 2.0], seed=1)
        session.compare(1, 0)
        path = tmp_path / "session.ckpt"
        session.checkpoint(path)
        session.checkpoint(path)  # overwrite goes through the same rename
        leftovers = [p for p in tmp_path.iterdir() if p.name != "session.ckpt"]
        assert leftovers == []

    def test_failed_write_leaves_old_checkpoint_intact(self, tmp_path):
        session = make_latent_session([0.0, 2.0], seed=1)
        session.compare(1, 0)
        path = tmp_path / "session.ckpt"
        session.checkpoint(path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            # Unserializable state: the write must fail before the rename,
            # so the previous checkpoint file stays valid.
            save_checkpoint({"bad": object()}, session.cache, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["session.ckpt"]

    def test_checkpoint_state_carries_config_and_providers(self):
        session = fresh_session()
        session.register_state_provider("probe", lambda: {"value": 41})
        state = session.checkpoint_state()
        assert state["config"]["confidence"] == pytest.approx(0.95)
        assert state["config"]["resilience"]["fault"]["timeout_rate"] == 0.0
        assert state["query"]["probe"] == {"value": 41}

    def test_restore_reads_the_retired_group_engine_key(self, tmp_path):
        # Checkpoints written while the group engine was selectable carry
        # its default, "racing", in their config: they revive.  Any other
        # engine names a config this library cannot run.
        session = fresh_session()
        session.compare(1, 0)
        state = session.checkpoint_state()
        path = tmp_path / "legacy.ckpt"
        state["config"]["group_engine"] = "racing"
        save_checkpoint(state, session.cache, path)
        restored = CrowdSession.restore(path, fresh_oracle())
        assert restored.config == session.config
        assert restored.total_cost == session.total_cost
        state["config"]["group_engine"] = "sequential"
        save_checkpoint(state, session.cache, path)
        with pytest.raises(ConfigError, match="group_engine"):
            CrowdSession.restore(path, fresh_oracle())

    def test_provider_keys_are_exclusive(self):
        session = fresh_session()
        assert session.register_state_provider("spr", lambda: {}) is True
        # A nested/recursive query must not steal the outer query's slot.
        assert session.register_state_provider("spr", lambda: {}) is False
        session.unregister_state_provider("spr")
        assert session.register_state_provider("spr", lambda: {}) is True


class TestCadence:
    def test_maybe_checkpoint_respects_every(self, tmp_path):
        session = make_latent_session([0.0, 3.0], seed=2)
        session.enable_checkpoints(tmp_path / "c.ckpt", every=10_000)
        assert session.maybe_checkpoint() is False  # no rounds elapsed yet
        session.compare(1, 0)
        assert session.maybe_checkpoint() is False  # cadence not reached
        session.charge_rounds(10_000)
        assert session.maybe_checkpoint() is True
        assert (tmp_path / "c.ckpt").exists()


class TestRestoreInProcess:
    def test_killed_query_resumes_to_identical_result(self, tmp_path):
        baseline = fresh_session()
        expected = spr_topk(baseline, list(range(20)), 4)

        path = tmp_path / "kill.ckpt"
        killed = fresh_session(max_total_cost=expected.cost // 2)
        killed.enable_checkpoints(path, every=1)
        with pytest.raises(BudgetExhaustedError):
            spr_topk(killed, list(range(20)), 4)
        assert path.exists()

        restored = CrowdSession.restore(path, fresh_oracle())
        restored.cost.ceiling = None  # the kill was the ceiling, lift it
        result = resume_spr_topk(restored)
        assert result.topk == expected.topk
        assert restored.total_cost == baseline.total_cost
        assert restored.total_rounds == baseline.total_rounds
        # Zero re-purchased microtasks: every charged task is in the cache
        # exactly once, so spent == cached just like in the baseline run.
        assert restored.cache.total_samples == restored.cost.microtasks
        assert restored.cache.total_samples == baseline.cache.total_samples

    def test_crash_after_a_recursion_resumes_the_whole_query(self, tmp_path):
        # This seed recurses into the losers once the partition is done.
        # The recursion must not checkpoint itself as the query: a crash
        # late in it resumes from the outer partition's last checkpoint.
        config = ComparisonConfig(
            confidence=0.95, budget=400, min_workload=2, batch_size=10,
            resilience=ResiliencePolicy(),
        )
        baseline = CrowdSession(fresh_oracle(), config, seed=0)
        expected = spr_topk(baseline, list(range(20)), 3)
        assert expected.recursed

        path = tmp_path / "recursed.ckpt"
        killed = CrowdSession(
            fresh_oracle(), config, seed=0, max_total_cost=expected.cost - 1
        )
        killed.enable_checkpoints(path, every=1)
        with pytest.raises(BudgetExhaustedError):
            spr_topk(killed, list(range(20)), 3)

        restored = CrowdSession.restore(path, fresh_oracle())
        restored.cost.ceiling = None
        result = resume_spr_topk(restored)
        assert result.topk == expected.topk
        assert restored.total_cost == baseline.total_cost

    def test_resume_is_bit_exact_under_faults(self, tmp_path):
        resilience = ResiliencePolicy(
            fault=FaultPolicy(
                timeout_rate=0.1, loss_rate=0.05, duplicate_rate=0.05, seed=3
            )
        )
        config = ComparisonConfig(
            confidence=0.95, budget=400, min_workload=2, batch_size=10,
            resilience=resilience,
        )
        baseline = CrowdSession(fresh_oracle(), config, seed=5)
        expected = spr_topk(baseline, list(range(20)), 4)

        path = tmp_path / "faulty.ckpt"
        killed = CrowdSession(
            fresh_oracle(), config, seed=5, max_total_cost=expected.cost // 2
        )
        killed.enable_checkpoints(path, every=1)
        with pytest.raises(BudgetExhaustedError):
            spr_topk(killed, list(range(20)), 4)

        restored = CrowdSession.restore(path, fresh_oracle())
        restored.cost.ceiling = None
        result = resume_spr_topk(restored)
        assert result.topk == expected.topk
        assert restored.total_cost == baseline.total_cost

    def test_restore_without_resumable_query_raises(self, tmp_path):
        from repro.errors import AlgorithmError

        session = make_latent_session([0.0, 2.0], seed=0)
        session.compare(1, 0)
        path = tmp_path / "bare.ckpt"
        session.checkpoint(path)
        restored = CrowdSession.restore(path, fresh_oracle())
        with pytest.raises(AlgorithmError):
            resume_spr_topk(restored)


#: Driver used by the fresh-process test below.  Three modes share one
#: deterministic query (seed-pinned oracle and session) so the parent test
#: can diff their JSON outputs.
_DRIVER = """
import json, sys
import numpy as np
from repro.config import ComparisonConfig
from repro.core.spr import resume_spr_topk, spr_topk
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.errors import BudgetExhaustedError

mode, path = sys.argv[1], sys.argv[2]

def fresh_oracle():
    scores = np.random.default_rng(13).normal(size=20) * 3.0
    return LatentScoreOracle(scores, GaussianNoise(0.8))

config = ComparisonConfig(
    confidence=0.95, budget=400, min_workload=2, batch_size=10
)

if mode == "baseline":
    session = CrowdSession(fresh_oracle(), config, seed=5)
    result = spr_topk(session, list(range(20)), 4)
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
        spr_topk(session, list(range(20)), 4)
    except BudgetExhaustedError:
        print("killed")
        sys.exit(0)
    print("never tripped")
    sys.exit(1)
elif mode == "resume":
    session = CrowdSession.restore(path, fresh_oracle())
    session.cost.ceiling = None
    result = resume_spr_topk(session)
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
        """The ISSUE's flagship scenario: checkpoint mid-partition, die,
        restore in a brand-new interpreter, finish identically."""
        path = tmp_path / "xproc.ckpt"
        baseline = json.loads(_run_driver("baseline", path))
        _run_driver("kill", path, max(baseline["cost"] // 2, 1))
        assert path.exists()
        resumed = json.loads(_run_driver("resume", path))
        assert resumed["topk"] == baseline["topk"]
        assert resumed["cost"] == baseline["cost"]
        assert resumed["rounds"] == baseline["rounds"]
        # Zero re-purchased microtasks: the resumed run's cache holds
        # exactly the baseline's judgments, and everything charged is
        # cached exactly once.
        assert resumed["cached"] == baseline["cached"]
        assert resumed["cached"] == resumed["cost"]
