"""Shared fixtures: small oracles, sessions and item sets for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.comparison import GroupRecords
from repro.core.items import ItemSet
from repro.crowd.group import plan_group
from repro.crowd.oracle import LatentScoreOracle
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.experiments.parallel import use_jobs


@pytest.fixture(autouse=True)
def ambient_jobs(request):
    """Install the session's ``--jobs`` as the ambient worker count.

    Entry points called with ``n_jobs=None`` (the experiment harness, the
    guarantee suite) then fan out accordingly — this is how the
    ``pytest -m statistical --jobs 2`` CI leg parallelizes without any
    per-test plumbing.  The default (1) keeps every test serial.
    """
    with use_jobs(request.config.getoption("--jobs")):
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_latent_session(
    scores,
    sigma: float = 1.0,
    seed: int = 0,
    **config_kwargs,
) -> CrowdSession:
    """A session over a latent-score oracle with Gaussian worker noise.

    ``scores`` may be a list/array (dense ids 0..n-1).  Config defaults are
    test-friendly: fast cold start, generous confidence.
    """
    defaults = dict(confidence=0.95, budget=1000, min_workload=2, batch_size=10)
    defaults.update(config_kwargs)
    oracle = LatentScoreOracle(np.asarray(scores, dtype=float), GaussianNoise(sigma))
    return CrowdSession(oracle, ComparisonConfig(**defaults), seed=seed)


#: The racing group engine, held before any test patches it out.
race_group = CrowdSession.compare_many


def per_pair_compare_many(session: CrowdSession, pairs) -> GroupRecords:
    """A parallel comparison group as one single comparison per pair, in
    input order, billed the max of their rounds (§5.5).

    The reference racing groups are held to: it draws the same judgment
    distribution one pair at a time, as :meth:`CrowdSession.compare`
    does.  Install it with
    ``monkeypatch.setattr(CrowdSession, "compare_many", per_pair_compare_many)``
    to run a whole algorithm under it (forked sessions share the class).
    """
    group = plan_group(pairs)
    if not group.lefts:
        return race_group(session, ())
    singles = []
    for i, j in zip(group.lefts, group.rights):
        rounds = session.latency.rounds
        singles.append(race_group(session, ((i, j),)))
        session.latency.rounds = rounds  # the group is billed below

    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(single, name) for single in singles])

    records = GroupRecords(
        column("lefts"),
        column("rights"),
        column("codes"),
        workloads=column("workloads"),
        costs=column("costs"),
        rounds=column("rounds"),
        means=column("means"),
        stds=column("stds"),
    )
    session.latency.add_parallel(records.rounds.tolist())
    return records


def make_items(scores) -> ItemSet:
    """An ItemSet with dense ids over ``scores``."""
    scores = np.asarray(scores, dtype=float)
    return ItemSet(ids=np.arange(len(scores)), scores=scores)


@pytest.fixture
def five_item_session() -> CrowdSession:
    """Five well-separated items: comparisons resolve at the cold start."""
    return make_latent_session([0.0, 2.0, 4.0, 6.0, 8.0], sigma=0.5, seed=7)


@pytest.fixture
def five_items() -> ItemSet:
    return make_items([0.0, 2.0, 4.0, 6.0, 8.0])
