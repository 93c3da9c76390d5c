"""RacingPool: equivalence with the sequential comparator, budgets, latency."""

import numpy as np
import pytest

from repro.crowd.pool import ACTIVE, DEACTIVATED, TIE, RacingPool
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
        assert session.cache.count(1, 0) == int(pool.n[0])

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
    """``_commit_round`` folds the cold-start mask (n < I) and the reach
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
        consumed, ties = pool._commit_round(sub, n0.copy(), values, reach, resolved)

        assert consumed == sum(row[0] for row in expected)
        assert [row[0] for row in expected] == [5, 3, 7, 3, 8]
        for r, (_, code, n, c1, c2) in enumerate(expected):
            assert pool.n[r] == n
            assert pool.s1[r] == c1 and pool.s2[r] == c2  # bit for bit
        assert [row[1] for row in expected] == [1, 0, -1, 0, 0]
        assert resolved == [(0, 1), (2, -1), (3, 0)]
        assert ties == 1
        assert pool.status.tolist() == [1, ACTIVE, -1, TIE, ACTIVE]
