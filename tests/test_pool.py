"""RacingPool: a pool against a single comparison, budgets, latency."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ComparisonConfig
from repro.core.cache import JudgmentCache
from repro.core.estimators import SteinTester
from repro.core.estimators.base import sample_variance
from repro.crowd.oracle import BinaryOracle, LatentScoreOracle
from repro.crowd.pool import ACTIVE, DEACTIVATED, TIE, RacingPool
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.service import SharedJudgmentCache
from repro.telemetry import MetricsRegistry
from tests.conftest import make_latent_session


class TestBasics:
    def test_all_pairs_resolve(self):
        session = make_latent_session([0.0, 2.0, 4.0, 6.0], sigma=0.5)
        pool = RacingPool(session, [(1, 0), (2, 0), (3, 0), (0, 3)])
        resolved = dict(pool.run_to_completion())
        assert resolved == {0: 1, 1: 1, 2: 1, 3: -1}
        assert pool.is_done

    def test_tie_at_budget(self):
        session = make_latent_session([1.0, 1.0], sigma=1.0, budget=40)
        pool = RacingPool(session, [(0, 1)])
        resolved = pool.run_to_completion()
        assert resolved == [(0, 0)]
        assert pool.status[0] == TIE
        assert pool.n[0] == 40

    def test_workload_matches_sequential_comparator(self):
        # Same seed → same oracle stream → identical stopping points when a
        # single pair races alone.
        scores = [0.0, 1.2]
        direct = make_latent_session(scores, sigma=1.0, seed=9)
        record = direct.compare(1, 0)

        pooled = make_latent_session(scores, sigma=1.0, seed=9)
        pool = RacingPool(pooled, [(1, 0)])
        (idx, code), = pool.run_to_completion()
        assert code == 1
        assert int(pool.n[idx]) == record.workload
        assert pooled.total_cost == record.cost

    def test_latency_one_round_per_racing_call(self):
        session = make_latent_session([0.0, 5.0, 0.0, 0.01], sigma=2.0, budget=100)
        pool = RacingPool(session, [(1, 0), (3, 2)])
        rounds = 0
        while not pool.is_done:
            pool.round()
            rounds += 1
            assert session.total_rounds == rounds
        drained = session.total_rounds
        pool.round()  # nothing active: free
        assert session.total_rounds == drained

    def test_charge_latency_disabled(self):
        session = make_latent_session([0.0, 5.0], sigma=1.0)
        pool = RacingPool(session, [(1, 0)], charge_latency=False)
        pool.run_to_completion()
        assert session.total_rounds == 0

    def test_invalid_step_rejected(self):
        session = make_latent_session([0.0, 1.0])
        pool = RacingPool(session, [(1, 0)])
        with pytest.raises(ValueError):
            pool.round(step=0)


class TestCacheIntegration:
    def test_consumed_samples_stored(self):
        session = make_latent_session([0.0, 3.0], sigma=0.5)
        pool = RacingPool(session, [(1, 0)])
        pool.run_to_completion()
        assert len(session.cache.bag(1, 0)) == int(pool.n[0])

    def test_replay_decides_without_cost(self):
        session = make_latent_session([0.0, 3.0], sigma=0.5)
        session.compare(1, 0)
        cost_before = session.total_cost
        pool = RacingPool(session, [(1, 0)])
        assert pool.initial_decisions == [(0, 1)]
        assert pool.is_done
        assert session.total_cost == cost_before

    def test_no_cache_mode_leaves_cache_empty(self):
        session = make_latent_session([0.0, 3.0], sigma=0.5)
        pool = RacingPool(session, [(1, 0)], use_cache=False)
        pool.run_to_completion()
        assert session.cache.total_samples == 0

    def test_replayed_tie_marked_at_init(self):
        session = make_latent_session([1.0, 1.0], sigma=1.0, budget=40)
        session.compare(0, 1)  # exhausts the pair budget
        pool = RacingPool(session, [(0, 1)])
        assert pool.initial_decisions == [(0, 0)]
        assert pool.is_done


class TestControls:
    def test_deactivate_stops_racing(self):
        session = make_latent_session([0.5, 0.5, 4.0], sigma=1.0, budget=100)
        pool = RacingPool(session, [(0, 1), (2, 0)])
        pool.deactivate(0)
        resolved = pool.run_to_completion()
        assert resolved == [(1, 1)]
        assert pool.status[0] == DEACTIVATED

    def test_moments_track_consumption(self):
        session = make_latent_session([0.0, 2.0], sigma=0.5)
        pool = RacingPool(session, [(1, 0)])
        pool.run_to_completion()
        n, mean, var = pool.moments(0)
        assert n == int(pool.n[0])
        assert mean == pytest.approx(2.0, abs=1.0)
        assert var >= 0.0

    def test_moments_empty(self):
        session = make_latent_session([0.0, 2.0])
        pool = RacingPool(session, [(1, 0)])
        n, mean, var = pool.moments(0)
        assert n == 0
        assert np.isnan(mean)

    def test_active_indices(self):
        session = make_latent_session([0.0, 0.05, 4.0], sigma=2.0, budget=200)
        pool = RacingPool(session, [(1, 0), (2, 0)])
        pool.round()
        # the far pair decided in round 1; the close pair keeps racing
        assert pool.active_indices.tolist() == [0]


class TestProgressSnapshot:
    """``progress()`` is the observatory's per-scrape view: it must agree
    with a naive per-pair reference, allocate no per-pair Python objects,
    and — called mid-round from another thread — never perturb the query."""

    @staticmethod
    def _reference(pool, step):
        # The slow, obviously-correct tally progress() must reproduce.
        statuses = [int(s) for s in pool.status]
        active = sum(s == ACTIVE for s in statuses)
        decided = sum(s in (1, -1) for s in statuses)
        ties = sum(s == TIE for s in statuses)
        if active:
            widest = pool.config.effective_budget - min(
                int(n) for n, s in zip(pool.n, statuses) if s == ACTIVE
            )
            est = max(-(-widest // max(step, 1)), 1)
        else:
            est = 0
        return {
            "pairs": pool.size,
            "active": active,
            "decided": decided,
            "ties": ties,
            "rounds_done": int(pool._rounds_done),
            "est_rounds_remaining": est,
            "consumed_microtasks": int(pool.n.sum()),
        }

    def test_matches_reference_every_round(self):
        session = make_latent_session(
            [0.0, 0.2, 3.0, 3.1, 6.0], sigma=2.0, budget=60
        )
        pool = RacingPool(session, [(1, 0), (2, 0), (3, 2), (4, 0), (4, 3)])
        step = session.config.batch_size
        assert pool.progress(step) == self._reference(pool, step)
        while not pool.is_done:
            pool.round()
            assert pool.progress(step) == self._reference(pool, step)
        done = pool.progress(step)
        assert done["active"] == 0
        assert done["est_rounds_remaining"] == 0
        assert done["decided"] + done["ties"] == pool.size

    def test_deactivated_pairs_counted_in_no_bucket(self):
        session = make_latent_session([0.0, 2.0, 4.0], sigma=0.5)
        pool = RacingPool(session, [(1, 0), (2, 0)])
        pool.deactivate(1)
        doc = pool.progress()
        assert doc["active"] == 1
        assert doc["decided"] == doc["ties"] == 0
        assert pool.status[1] == DEACTIVATED

    def test_mid_round_scrape_is_bit_invisible(self):
        """Hammering progress() from another thread mid-round leaves the
        query bit-identical to an unscraped twin (PR contract: scrapes
        serve from read-only SoA views, never from mutating state)."""
        import threading

        def run(scrape: bool):
            session = make_latent_session(
                [0.0, 0.4, 1.8, 2.2, 4.0, 4.1], sigma=1.5, seed=23, budget=80
            )
            pool = RacingPool(
                session, [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (5, 0)]
            )
            stop = threading.Event()
            scrapes = {"n": 0}

            def hammer():
                while not stop.is_set():
                    doc = pool.progress()
                    assert 0 <= doc["active"] <= pool.size
                    scrapes["n"] += 1

            scraper = threading.Thread(target=hammer) if scrape else None
            if scraper:
                scraper.start()
            try:
                resolved = pool.run_to_completion()
            finally:
                stop.set()
                if scraper:
                    scraper.join()
                    assert scrapes["n"] > 0
            return (
                resolved,
                session.total_cost,
                session.total_rounds,
                pool.n.tolist(),
                pool.status.tolist(),
                repr(session.rng.bit_generator.state),
            )

        assert run(scrape=True) == run(scrape=False)


class TestCommitMasks:
    """``_commit_rounds`` folds the cold-start mask (n < I) and the reach
    mask (columns a row cannot consume) into one first-decision search;
    it must agree with applying the two masks to the codes explicitly."""

    BUDGET, MIN_WORKLOAD, WIDTH = 40, 5, 8

    @classmethod
    def _reference(cls, tester, n0, s1, s2, values, reach, min_workload):
        """Per row: (consumed, code, n, s1, s2) with both masks explicit."""
        out = []
        col = np.arange(1, cls.WIDTH + 1)
        for r in range(values.shape[0]):
            n = n0[r] + col
            c1 = s1[r] + np.cumsum(values[r])
            c2 = s2[r] + np.cumsum(np.square(values[r]))
            codes = tester.decision_codes(n, c1 / n, c2)
            codes = np.where(n >= min_workload, codes, 0)
            codes = np.where(col > reach[r], 0, codes)
            hits = np.flatnonzero(codes)
            stop = int(hits[0]) if hits.size else int(reach[r]) - 1
            code = int(codes[stop]) if hits.size else 0
            out.append((stop + 1, code, int(n[stop]), c1[stop], c2[stop]))
        return out

    def test_folded_masks_match_explicit_masks(self):
        session = make_latent_session(
            [0.0] * 10,
            budget=self.BUDGET,
            min_workload=self.MIN_WORKLOAD,
            batch_size=self.WIDTH,
        )
        pool = RacingPool(session, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
        strong = np.full(self.WIDTH, 3.0) + np.linspace(0.0, 0.1, self.WIDTH)
        quiet = np.tile([1.0, -1.0], self.WIDTH // 2)
        values = np.array(
            [
                strong,  # decides early, but only from n = I on
                np.concatenate((quiet[:3], strong[3:])),  # decides past reach
                np.concatenate((quiet[:2], -strong[2:])),  # decides in reach
                quiet,  # reach < width, ends at the budget: a tie
                quiet,  # undecided, budget left: stays active
            ]
        )
        n0 = np.array([0, 30, 10, self.BUDGET - 3, 12])
        s1 = np.array([0.0, 3.0, -0.25, 0.0, 1.0])
        s2 = np.array([0.0, 12.0, 9.5, 37.0, 13.0])
        reach = np.minimum(self.WIDTH, self.BUDGET - n0)
        reach[1] = 3
        pool.n[:], pool.s1[:], pool.s2[:] = n0, s1, s2
        tester = pool._tester
        expected = self._reference(
            tester, n0, s1, s2, values, reach, self.MIN_WORKLOAD
        )
        # Each mask matters: without the cold-start gate row 0 decides
        # sooner, and with its whole width row 1 decides.
        unmasked = self._reference(
            tester, n0, s1, s2, values, np.full(5, self.WIDTH), 2
        )
        assert unmasked[0][0] < expected[0][0]
        assert unmasked[1][1] != 0 and expected[1][1] == 0

        resolved: list = []
        sub = np.arange(5)
        ties_before = pool._telemetry.counter_value("crowd_budget_ties_total")
        pool._commit_rounds(sub, n0.copy(), values, reach, resolved)
        consumed = session.total_cost
        ties = pool._telemetry.counter_value("crowd_budget_ties_total") - ties_before

        assert consumed == sum(row[0] for row in expected)
        assert [row[0] for row in expected] == [5, 3, 7, 3, 8]
        for r, (_, code, n, c1, c2) in enumerate(expected):
            assert pool.n[r] == n
            assert pool.s1[r] == c1 and pool.s2[r] == c2  # bit for bit
        assert [row[1] for row in expected] == [1, 0, -1, 0, 0]
        assert resolved == [(0, 1), (2, -1), (3, 0)]
        assert ties == 1
        assert pool.status.tolist() == [1, ACTIVE, -1, TIE, ACTIVE]


def scratch_replay(session, pairs) -> dict:
    """The cache replay as a from-scratch scan: each pair's first
    ``budget`` judgments packed into one padded matrix, the stopping rule
    evaluated over the cumulative moments of every prefix."""
    config = session.config
    tester, _ = session._racing_kit(config)
    budget = config.effective_budget
    stage = config.min_workload
    stein = isinstance(tester, SteinTester)
    count = len(pairs)
    out = {
        "n": np.zeros(count, dtype=np.int64),
        "s1": np.zeros(count),
        "s2": np.zeros(count),
        "status": np.zeros(count, dtype=np.int8),
        "stage_var": np.full(count, np.nan),
        "initial": [],
    }
    bags = [JudgmentCache.bag(session.cache, i, j)[:budget] for i, j in pairs]
    lengths = np.asarray([bag.size for bag in bags], dtype=np.int64)
    rows = np.flatnonzero(lengths)
    if not rows.size:
        return out
    row_len = lengths[rows]
    width = int(row_len.max())
    values = np.zeros((rows.size, width))
    for at, row in enumerate(rows):
        values[at, : row_len[at]] = bags[row]

    counts = np.arange(1, width + 1, dtype=np.int64)
    n_mat = np.broadcast_to(counts, values.shape)
    s1_mat = np.cumsum(values, axis=1)
    s2_mat = np.cumsum(np.square(values), axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_mat = s1_mat / n_mat
    if stein:
        staged = np.flatnonzero(row_len >= stage)
        if staged.size:
            col = stage - 1
            out["stage_var"][rows[staged]] = sample_variance(
                n_mat[staged, col], mean_mat[staged, col], s2_mat[staged, col]
            )
        codes = SteinTester.frozen_codes(
            n_mat, mean_mat, out["stage_var"][rows][:, None], stage - 1,
            tester.alpha, tester.epsilon,
        )
    else:
        codes = tester.decision_codes(n_mat, mean_mat, s2_mat)
    codes = np.where(n_mat >= stage, codes, 0)
    codes = np.where(counts[None, :] <= row_len[:, None], codes, 0)
    has_decision = codes != 0
    decided = has_decision.any(axis=1)
    first = np.where(decided, has_decision.argmax(axis=1), row_len - 1)
    index = np.arange(rows.size)
    out["n"][rows] = n_mat[index, first]
    out["s1"][rows] = s1_mat[index, first]
    out["s2"][rows] = s2_mat[index, first]
    resolve = np.flatnonzero(decided | (row_len >= budget))
    out_codes = codes[resolve, first[resolve]]
    out["status"][rows[resolve]] = np.where(
        out_codes > 0, 1, np.where(out_codes < 0, -1, TIE)
    )
    out["initial"] = list(zip(rows[resolve].tolist(), out_codes.tolist()))
    return out


_ITEMS = 3
_PAIR = st.tuples(st.integers(0, _ITEMS - 1), st.integers(0, _ITEMS - 1)).filter(
    lambda pair: pair[0] != pair[1]
)
#: Judgment patterns: signed zeros and values that cancel exactly.
_PATTERN = st.one_of(
    st.lists(
        st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, 0.0, -0.0]),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=3),
)
_HISTORY = st.lists(
    st.one_of(
        # A bag tiled from a short pattern: long enough to pass the
        # selection budget, and undecided for ever when it cancels.
        st.tuples(st.just("write"), _PAIR, _PATTERN, st.integers(1, 25)),
        # A pool of either session (budget 60 or 1000), then rounds.
        st.tuples(
            st.just("replay"), st.integers(0, 1),
            st.lists(_PAIR, min_size=1, max_size=5), st.integers(0, 2),
        ),
        # The LRU empties a bag, and a later query may buy it again.
        st.tuples(st.just("evict"), _PAIR, _PATTERN, st.integers(0, 25)),
        st.tuples(st.just("free")),
        st.tuples(st.just("clear")),
    ),
    min_size=4,
    max_size=16,
)


class TestReplayFrontier:
    """Replay through each bag's frontier, as the racing pool does it,
    must match a from-scratch scan of the bag bit for bit, whatever the
    pools of two sessions (budgets 60 and 1000) sharing one tenant
    namespace wrote, evicted, compacted or recycled in between."""

    @staticmethod
    def _sessions(estimator: str):
        namespace = SharedJudgmentCache(registry=MetricsRegistry()).tenant("t")
        sessions = []
        for seed, budget in enumerate((60, 1000)):
            oracle = LatentScoreOracle(
                np.asarray([0.0, 0.3, 1.0]), GaussianNoise(1.0)
            )
            if estimator == "hoeffding":
                oracle = BinaryOracle(oracle)
            config = ComparisonConfig(
                confidence=0.95, budget=budget, min_workload=5,
                batch_size=10, estimator=estimator,
            )
            session = CrowdSession(oracle, config, seed=seed)
            session.use_cache(namespace)
            sessions.append(session)
        return namespace, sessions

    @pytest.mark.parametrize("estimator", ["student", "stein", "hoeffding"])
    @settings(max_examples=60, deadline=None)
    @given(history=_HISTORY)
    # x + (-x) is +0.0 read either way round: not the negated sum.
    @example(history=[("write", (0, 1), [1.0, -1.0], 1), ("replay", 0, [(1, 0)], 0)])
    # A bag of -0.0 sums to -0.0 from the -0.0 seed, +0.0 from a +0.0 one.
    @example(history=[("write", (0, 1), [-0.0], 3), ("replay", 0, [(0, 1)], 0)])
    # A refilled bag must not resume the emptied bag's frontier.
    @example(
        history=[
            ("write", (0, 1), [1.0, -1.0], 3),
            ("replay", 1, [(0, 1)], 0),
            ("evict", (0, 1), [1.0], 10),
            ("replay", 1, [(0, 1)], 0),
        ]
    )
    # A frontier past the selection budget reads undecided up to it.
    @example(
        history=[
            ("write", (0, 1), [1.0, -1.0], 40),
            ("replay", 1, [(0, 1)], 0),
            ("replay", 0, [(1, 0)], 0),
            ("write", (2, 3), [1.0, -0.5, 2.0], 25),
            ("replay", 1, [(3, 2)], 0),
            ("replay", 0, [(2, 3)], 0),
        ]
    )
    def test_matches_a_from_scratch_scan(self, estimator, history):
        namespace, sessions = self._sessions(estimator)
        for op in history:
            kind = op[0]
            if kind == "write":
                (i, j), pattern, repeat = op[1:]
                namespace.append(i, j, np.tile(pattern, repeat))
            elif kind == "replay":
                session = sessions[op[1]]
                want = scratch_replay(session, op[2])
                pool = RacingPool(session, op[2])
                assert pool.n.tolist() == want["n"].tolist()
                got = {"s1": pool.s1, "s2": pool.s2, "stage_var": pool._stage_var}
                for name, values in got.items():
                    if values is not None:  # no stage variances but Stein's
                        bits = values.view(np.uint64).tolist()
                        assert bits == want[name].view(np.uint64).tolist(), name
                assert pool.status.tolist() == want["status"].tolist()
                assert pool.initial_decisions == want["initial"]
                for _ in range(op[3]):
                    pool.round()
            elif kind == "evict":
                (i, j), pattern, repeat = op[1:]
                slot = namespace._slot_of.get((min(i, j), max(i, j)))
                if slot is not None:
                    namespace.settle()
                    namespace._evict(slot)
                    namespace._compact_if_sparse()
                namespace.append(i, j, np.tile(pattern, repeat))
            elif kind == "free":
                namespace.settle()
                namespace._free_empty_slots()
            else:
                namespace.clear()
