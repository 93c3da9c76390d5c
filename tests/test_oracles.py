"""Judgment oracles: simulation rules, batching consistency, graded support."""

import numpy as np
import pytest

from repro import load_dataset
from repro.config import ComparisonConfig, FaultPolicy
from repro.crowd.faults import FaultInjector
from repro.crowd.oracle import (
    BinaryOracle,
    HistogramOracle,
    LatentScoreOracle,
    RecordDatabaseOracle,
    UserTableOracle,
)
from repro.crowd.session import CrowdSession
from repro.crowd.workers import GaussianNoise
from repro.crowd.workforce import Workforce, WorkforceOracle
from repro.errors import OracleError
from repro.telemetry import use_registry


def _dataset_oracle(name, wrap=lambda oracle: oracle):
    def build():
        dataset = load_dataset(name)
        return wrap(dataset.oracle), len(dataset)

    return build


#: Every oracle class, as (oracle, item count n) over ids 0..n-1.
ORACLES = {
    # The six dataset oracles.
    "imdb": _dataset_oracle("imdb"),
    "book": _dataset_oracle("book"),
    "jester": _dataset_oracle("jester"),
    "photo": _dataset_oracle("photo"),
    "peopleage": _dataset_oracle("peopleage"),
    "synthetic": _dataset_oracle("synthetic"),
    # The wrappers.
    "binary": _dataset_oracle("book", BinaryOracle),
    "workforce": _dataset_oracle(
        "jester",
        lambda base: WorkforceOracle(
            base, Workforce.generate(5, seed=2, spammer_rate=0.2), keep_log=True
        ),
    ),
    "faults_off": _dataset_oracle("jester", FaultInjector),
    "faults_on": _dataset_oracle(
        "jester",
        lambda base: FaultInjector(
            base, FaultPolicy(timeout_rate=0.2, loss_rate=0.1, seed=4)
        ),
    ),
}


class TestLatentScoreOracle:
    def test_mean_tracks_score_gap(self, rng):
        oracle = LatentScoreOracle(np.array([0.0, 3.0]), GaussianNoise(1.0))
        draws = oracle.draw(1, 0, 4000, rng)
        assert draws.mean() == pytest.approx(3.0, abs=0.1)

    def test_antisymmetric_in_expectation(self, rng):
        oracle = LatentScoreOracle(np.array([0.0, 3.0]), GaussianNoise(1.0))
        fwd = oracle.draw(1, 0, 4000, rng).mean()
        rev = oracle.draw(0, 1, 4000, rng).mean()
        assert fwd == pytest.approx(-rev, abs=0.2)

    def test_draw_pairs_matches_draw_distribution(self, rng):
        oracle = LatentScoreOracle(np.arange(4, dtype=float), GaussianNoise(0.5))
        matrix = oracle.draw_pairs(
            np.array([3, 2]), np.array([0, 1]), 2000, rng
        )
        assert matrix.shape == (2, 2000)
        assert matrix[0].mean() == pytest.approx(3.0, abs=0.1)
        assert matrix[1].mean() == pytest.approx(1.0, abs=0.1)

    def test_sparse_ids_supported(self, rng):
        oracle = LatentScoreOracle({10: 0.0, 99: 2.0}, GaussianNoise(0.1))
        assert oracle.draw(99, 10, 100, rng).mean() == pytest.approx(2.0, abs=0.1)

    def test_unknown_item_rejected(self, rng):
        oracle = LatentScoreOracle(np.array([0.0, 1.0]))
        with pytest.raises(OracleError):
            oracle.draw(0, 7, 1, rng)

    def test_rating_support(self, rng):
        oracle = LatentScoreOracle(np.array([0.0, 2.0]), GaussianNoise(0.5))
        assert oracle.supports_rating
        assert oracle.rate(1, 2000, rng).mean() == pytest.approx(2.0, abs=0.1)


class TestHistogramOracle:
    @pytest.fixture
    def oracle(self):
        support = np.arange(1.0, 6.0)
        pmfs = {
            0: np.array([0.6, 0.3, 0.1, 0.0, 0.0]),  # poor item
            1: np.array([0.0, 0.0, 0.1, 0.3, 0.6]),  # great item
            2: np.array([0.2, 0.2, 0.2, 0.2, 0.2]),  # uniform
        }
        return HistogramOracle(support, pmfs)

    def test_mean_rating(self, oracle):
        assert oracle.mean_rating(2) == pytest.approx(3.0)
        assert oracle.mean_rating(1) == pytest.approx(4.5)

    def test_draw_matches_histogram_difference(self, oracle, rng):
        draws = oracle.draw(1, 0, 5000, rng)
        expected = oracle.mean_rating(1) - oracle.mean_rating(0)
        assert draws.mean() == pytest.approx(expected, abs=0.1)

    def test_values_live_on_support_differences(self, oracle, rng):
        draws = oracle.draw(0, 1, 500, rng)
        assert np.all(draws == np.round(draws))
        assert np.all(np.abs(draws) <= 4)

    def test_bounds(self, oracle):
        assert oracle.bounds == (-4.0, 4.0)
        assert oracle.value_range == 8.0

    def test_rate_distribution(self, oracle, rng):
        ratings = oracle.rate(0, 5000, rng)
        assert ratings.mean() == pytest.approx(1.5, abs=0.1)
        assert set(np.unique(ratings)) <= {1.0, 2.0, 3.0}

    def test_draw_pairs_shape_and_mean(self, oracle, rng):
        matrix = oracle.draw_pairs(np.array([1, 1]), np.array([0, 2]), 3000, rng)
        assert matrix.shape == (2, 3000)
        assert matrix[1].mean() == pytest.approx(1.5, abs=0.15)

    def test_validates_pmfs(self):
        support = np.arange(1.0, 4.0)
        with pytest.raises(OracleError):
            HistogramOracle(support, {0: np.array([0.5, 0.5])})  # wrong shape
        with pytest.raises(OracleError):
            HistogramOracle(support, {0: np.array([0.5, 0.6, 0.2])})  # not a pmf

    def test_validates_support(self):
        with pytest.raises(OracleError):
            HistogramOracle(np.array([1.0]), {0: np.array([1.0])})
        with pytest.raises(OracleError):
            HistogramOracle(np.array([2.0, 1.0]), {0: np.array([0.5, 0.5])})

    def test_unknown_item(self, oracle, rng):
        with pytest.raises(OracleError):
            oracle.draw(0, 9, 1, rng)


class TestUserTableOracle:
    @pytest.fixture
    def oracle(self, rng):
        # 200 users, 3 items; item quality 0 < 1 < 2, strong user bias.
        bias = rng.normal(0, 5, size=(200, 1))
        quality = np.array([0.0, 1.0, 2.0])
        return UserTableOracle(bias + quality[None, :])

    def test_within_user_differencing_cancels_bias(self, oracle, rng):
        draws = oracle.draw(2, 0, 3000, rng)
        assert draws.mean() == pytest.approx(2.0, abs=0.05)
        assert draws.std() < 1.0  # bias cancelled exactly in this model

    def test_mean_rating(self, oracle):
        assert oracle.mean_rating(1) - oracle.mean_rating(0) == pytest.approx(1.0)

    def test_draw_pairs(self, oracle, rng):
        matrix = oracle.draw_pairs(np.array([1, 2]), np.array([0, 0]), 1000, rng)
        assert matrix[0].mean() == pytest.approx(1.0, abs=0.1)
        assert matrix[1].mean() == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("unknown", [-1, 3])
    def test_draw_pairs_rejects_unknown_ids(self, oracle, rng, unknown):
        # A negative id must not wrap around to the last column.
        with pytest.raises(OracleError):
            oracle.draw_pairs(np.array([unknown]), np.array([2]), 4, rng)

    def test_rate(self, oracle, rng):
        assert oracle.supports_rating
        ratings = oracle.rate(2, 5000, rng)
        assert ratings.mean() == pytest.approx(oracle.mean_rating(2), abs=0.5)

    def test_validates_matrix(self):
        with pytest.raises(OracleError):
            UserTableOracle(np.array([1.0, 2.0]))  # 1-D
        with pytest.raises(OracleError):
            UserTableOracle(np.array([[1.0, np.nan]]))

    def test_custom_item_ids(self, rng):
        oracle = UserTableOracle(np.array([[1.0, 5.0]]), item_ids=np.array([10, 20]))
        assert oracle.draw(20, 10, 5, rng).tolist() == [4.0] * 5

    def test_duplicate_item_ids_rejected(self):
        # Ids 0, 0, 2 span 0..2 without item 1: a bulk draw for item 1
        # once read an uninitialized column.
        with pytest.raises(OracleError, match="unique"):
            UserTableOracle(np.arange(6.0).reshape(2, 3), item_ids=np.array([0, 0, 2]))


class TestRecordDatabaseOracle:
    @pytest.fixture
    def oracle(self):
        return RecordDatabaseOracle(
            {
                (0, 1): np.array([0.5, 0.7, 0.6]),
                (2, 1): np.array([-0.2, -0.4]),
            }
        )

    def test_draws_come_from_records(self, oracle, rng):
        draws = oracle.draw(0, 1, 200, rng)
        assert set(np.unique(draws)) <= {0.5, 0.7, 0.6}

    def test_orientation_flips_sign(self, oracle, rng):
        draws = oracle.draw(1, 0, 200, rng)
        assert set(np.unique(draws)) <= {-0.5, -0.7, -0.6}

    def test_record_count(self, oracle):
        assert oracle.record_count(0, 1) == 3
        assert oracle.record_count(1, 2) == 2

    def test_missing_pair_rejected(self, oracle, rng):
        with pytest.raises(OracleError):
            oracle.draw(0, 2, 1, rng)

    def test_draw_pairs(self, oracle, rng):
        matrix = oracle.draw_pairs(np.array([0, 1]), np.array([1, 2]), 100, rng)
        assert set(np.unique(matrix[0])) <= {0.5, 0.6, 0.7}
        assert set(np.unique(matrix[1])) <= {0.2, 0.4}

    def test_validates_database(self):
        with pytest.raises(OracleError):
            RecordDatabaseOracle({})
        with pytest.raises(OracleError):
            RecordDatabaseOracle({(1, 1): np.array([0.5])})
        with pytest.raises(OracleError):
            RecordDatabaseOracle({(0, 1): np.array([])})
        with pytest.raises(OracleError):
            RecordDatabaseOracle(
                {(0, 1): np.array([0.5]), (1, 0): np.array([0.5])}
            )


class TestBinaryOracle:
    def test_only_signs_emitted(self, rng):
        base = LatentScoreOracle(np.array([0.0, 1.0]), GaussianNoise(2.0))
        oracle = BinaryOracle(base)
        draws = oracle.draw(1, 0, 500, rng)
        assert set(np.unique(draws)) <= {-1.0, 1.0}

    def test_zeros_redrawn(self, rng):
        support = np.array([1.0, 2.0])
        base = HistogramOracle(
            support, {0: np.array([0.5, 0.5]), 1: np.array([0.4, 0.6])}
        )
        oracle = BinaryOracle(base)
        draws = oracle.draw(1, 0, 300, rng)
        assert np.all(draws != 0)

    def test_draw_pairs_redraws_zeros(self, rng):
        support = np.array([1.0, 2.0])
        base = HistogramOracle(
            support, {0: np.array([0.5, 0.5]), 1: np.array([0.4, 0.6])}
        )
        matrix = BinaryOracle(base).draw_pairs(
            np.array([1, 0]), np.array([0, 1]), 50, rng
        )
        assert np.all(matrix != 0)

    def test_identical_items_eventually_error(self, rng):
        support = np.array([1.0, 2.0])
        pmf = np.array([0.5, 0.5])
        base = RecordDatabaseOracle({(0, 1): np.array([0.0])})
        with pytest.raises(OracleError):
            BinaryOracle(base).draw(0, 1, 10, rng)

    def test_bounds_are_binary(self):
        base = LatentScoreOracle(np.array([0.0, 1.0]))
        assert BinaryOracle(base).bounds == (-1.0, 1.0)
        assert BinaryOracle(base).value_range == 2.0


class TestHistogramSamplingVectorization:
    """``_sample_ratings``'s searchsorted path vs the broadcast reference.

    The sampler was rewritten from an O(pairs × size × grid) comparison
    broadcast to one global ``searchsorted`` over row-shifted CDFs; these
    tests pin that the rewrite is draw-for-draw identical under a pinned
    RNG (so recorded experiment results cannot move) and that the sampled
    distribution still matches the pmfs.
    """

    @pytest.fixture
    def oracle(self):
        support = np.arange(1.0, 6.0)
        pmfs = {
            0: np.array([0.6, 0.3, 0.1, 0.0, 0.0]),
            1: np.array([0.0, 0.0, 0.1, 0.3, 0.6]),
            2: np.array([0.2, 0.2, 0.2, 0.2, 0.2]),
        }
        return HistogramOracle(support, pmfs)

    @staticmethod
    def _reference_sample(oracle, rows, size, rng):
        """The former broadcast implementation, kept as the oracle's spec."""
        u = rng.random((len(rows), size))
        idx = (u[:, :, None] > oracle._cdf[rows][:, None, :]).sum(axis=2)
        return oracle._support[idx]

    def test_matches_broadcast_reference_draw_for_draw(self, oracle):
        rows = np.array([0, 2, 1, 2])
        expected = self._reference_sample(
            oracle, rows, 257, np.random.default_rng(42)
        )
        actual = oracle._sample_ratings(rows, 257, np.random.default_rng(42))
        np.testing.assert_array_equal(actual, expected)

    def test_matches_reference_on_degenerate_pmfs(self, oracle):
        # Zero-probability cells produce repeated CDF values; ties must
        # resolve exactly as the strict ``u > cdf`` comparison did.
        rows = np.array([0, 1])
        for seed in range(5):
            expected = self._reference_sample(
                oracle, rows, 64, np.random.default_rng(seed)
            )
            actual = oracle._sample_ratings(
                rows, 64, np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("pairs", [1, 7, 700])
    def test_draw_pairs_matches_two_per_side_calls(self, pairs):
        # The former draw_pairs: one sampling call per side.  One
        # ``rng.random`` call now serves both sides with the same stream.
        rng = np.random.default_rng(pairs)
        support = np.linspace(1.0, 10.0, 10)
        pmfs = {
            item: rng.dirichlet(np.full(10, 0.5)) for item in range(2 * pairs)
        }
        oracle = HistogramOracle(support, pmfs)
        left = rng.permutation(2 * pairs)[:pairs]
        right = (left + 1) % (2 * pairs)
        expected_rng, actual_rng = (np.random.default_rng(5) for _ in range(2))
        expected = oracle._sample_ratings(
            left, 40, expected_rng
        ) - oracle._sample_ratings(right, 40, expected_rng)
        actual = oracle.draw_pairs(left, right, 40, actual_rng)
        np.testing.assert_array_equal(actual, expected)
        assert actual_rng.random() == expected_rng.random()

    def test_each_side_keeps_its_own_shifts(self):
        # A uniform one ulp-ish above a CDF step counts that step only while
        # the row's shift is small enough to keep the gap: shifted by 2·r
        # for r restarting at 0 on each side, as two per-side calls did, the
        # first right-hand row still counts it; shifted by 2·(pairs + r)
        # it would not.
        class Uniforms:
            def random(self, shape):
                return np.full(shape, 0.5 + 2.0**-50)

        support = np.array([1.0, 2.0])
        oracle = HistogramOracle(support, {i: np.array([0.5, 0.5]) for i in range(16)})
        left, right = np.arange(8), np.arange(8, 16)
        expected = oracle._sample_ratings(
            left, 3, Uniforms()
        ) - oracle._sample_ratings(right, 3, Uniforms())
        np.testing.assert_array_equal(
            oracle.draw_pairs(left, right, 3, Uniforms()), expected
        )

    @pytest.mark.parametrize("unknown", [-1, 3, 10**6])
    def test_draw_pairs_rejects_unknown_ids(self, oracle, unknown):
        rng = np.random.default_rng(0)
        with pytest.raises(OracleError):
            oracle.draw_pairs(np.array([0, unknown]), np.array([1, 2]), 4, rng)
        with pytest.raises(OracleError):
            oracle.draw_pairs(np.array([0, 1]), np.array([unknown, 2]), 4, rng)

    def test_draw_pairs_with_sparse_ids(self):
        # Ids that are not 0..n-1 take the checked per-item lookup.
        support = np.arange(1.0, 6.0)
        pmf = np.full(5, 0.2)
        sparse = HistogramOracle(support, {10: pmf, 20: pmf, 30: pmf})
        dense = HistogramOracle(support, {0: pmf, 1: pmf, 2: pmf})
        np.testing.assert_array_equal(
            sparse.draw_pairs(
                np.array([10, 30]), np.array([20, 10]), 9, np.random.default_rng(1)
            ),
            dense.draw_pairs(
                np.array([0, 2]), np.array([1, 0]), 9, np.random.default_rng(1)
            ),
        )
        with pytest.raises(OracleError):
            sparse.draw_pairs(np.array([10]), np.array([11]), 3, np.random.default_rng(1))

    def test_distribution_unchanged(self, oracle, rng):
        ratings = oracle._sample_ratings(np.array([0]), 20000, rng)[0]
        freqs = [(ratings == v).mean() for v in oracle._support]
        np.testing.assert_allclose(freqs, [0.6, 0.3, 0.1, 0.0, 0.0], atol=0.02)


class TestOracleContract:
    """What every oracle owes its callers: ``draw_pairs`` is the one
    sampling door, ``draw`` is row 0 of a one-pair ``draw_pairs``, and an
    unknown id is refused before any judgment is drawn."""

    @pytest.fixture(params=sorted(ORACLES))
    def oracle(self, request):
        return ORACLES[request.param]()

    def test_draw_is_row_zero_of_draw_pairs(self, oracle):
        oracle, n = oracle
        pick = np.random.default_rng(3)
        for _ in range(20):
            i, j = pick.choice(n, 2, replace=False).tolist()
            size = int(pick.integers(1, 12))
            one, many = np.random.default_rng(size), np.random.default_rng(size)
            np.testing.assert_array_equal(
                oracle.draw(i, j, size, one),
                oracle.draw_pairs(np.array([i]), np.array([j]), size, many)[0],
            )
            assert one.bit_generator.state == many.bit_generator.state

    def test_unknown_ids_raise_before_drawing(self, oracle):
        oracle, n = oracle
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for unknown in (-1, n):
            with pytest.raises(OracleError):
                oracle.draw(unknown, 0, 3, rng)
            with pytest.raises(OracleError):
                oracle.draw(0, unknown, 3, rng)
            with pytest.raises(OracleError):
                oracle.draw_pairs(np.array([1, unknown]), np.array([0, 1]), 3, rng)
            with pytest.raises(OracleError):
                oracle.draw_pairs(np.array([1, 0]), np.array([0, unknown]), 3, rng)
        assert rng.bit_generator.state == state

    def test_worker_log_holds_every_judgment(self):
        oracle, _ = ORACLES["workforce"]()
        config = ComparisonConfig(budget=60, min_workload=5, batch_size=10)
        with use_registry() as registry:
            session = CrowdSession(oracle, config, seed=1)
            session.compare_many([(0, 1), (2, 3), (4, 5)])
            session.compare(6, 7)
        drawn = registry.counter_value("oracle_judgments_total")
        assert drawn > 0
        assert len(oracle.log) == sum(oracle.answers_by_worker.values()) == drawn
