"""Sequential testers: stopping rules, scan/streaming equivalence, coverage."""

import math

import numpy as np
import pytest

from repro.config import ComparisonConfig
from repro.core.estimators import (
    HoeffdingTester,
    MomentState,
    SteinTester,
    StudentTester,
    make_tester,
)
from repro.stats.tdist import t_quantile, t_quantiles


class TestMomentState:
    def test_push_updates_moments(self):
        state = MomentState()
        for v in (1.0, 2.0, 3.0):
            state.push(v)
        assert state.n == 3
        assert state.mean == pytest.approx(2.0)
        assert state.variance == pytest.approx(1.0)
        assert state.std == pytest.approx(1.0)

    def test_push_many_equals_pushes(self, rng):
        values = rng.normal(size=50)
        a, b = MomentState(), MomentState()
        a.push_many(values)
        for v in values:
            b.push(v)
        assert a.n == b.n
        assert a.mean == pytest.approx(b.mean)
        assert a.variance == pytest.approx(b.variance)

    def test_empty_state_nan(self):
        state = MomentState()
        assert math.isnan(state.mean)
        assert math.isnan(state.variance)

    def test_single_sample_variance_nan(self):
        state = MomentState()
        state.push(1.0)
        assert math.isnan(state.variance)


class TestStudentTester:
    def test_decides_after_min_workload(self):
        tester = StudentTester(alpha=0.05, min_workload=5)
        for _ in range(4):
            tester.push(1.0)
        tester.push(1.01)
        assert tester.decision() == 1

    def test_no_decision_before_min_workload(self):
        tester = StudentTester(alpha=0.05, min_workload=10)
        for v in (1.0, 1.1, 0.9):
            tester.push(v)
        assert tester.decision() is None

    def test_negative_mean_decides_right(self):
        tester = StudentTester(alpha=0.05, min_workload=2)
        tester.push_many(np.array([-1.0, -1.05, -0.95, -1.0]))
        assert tester.decision() == -1

    def test_interval_matches_textbook_formula(self):
        values = np.array([0.8, 1.2, 1.0, 0.9, 1.1])
        tester = StudentTester(alpha=0.05, min_workload=2)
        tester.push_many(values)
        lo, hi = tester.interval()
        mean = values.mean()
        margin = t_quantile(0.05, 4) * values.std(ddof=1) / math.sqrt(5)
        assert lo == pytest.approx(mean - margin)
        assert hi == pytest.approx(mean + margin)

    def test_undecided_when_interval_straddles_zero(self):
        tester = StudentTester(alpha=0.05, min_workload=2)
        tester.push_many(np.array([1.0, -1.0, 0.5, -0.5]))
        assert tester.decision() is None

    def test_scan_equals_streaming(self, rng):
        values = rng.normal(0.4, 1.0, size=400)
        scanner = StudentTester(alpha=0.05, min_workload=30)
        consumed, decision = scanner.scan(values)

        streamer = StudentTester(alpha=0.05, min_workload=30)
        stream_decision = None
        stream_consumed = 0
        for v in values:
            streamer.push(v)
            stream_consumed += 1
            stream_decision = streamer.decision()
            if stream_decision is not None:
                break
        assert consumed == stream_consumed
        assert decision == stream_decision
        assert scanner.state.n == streamer.state.n
        assert scanner.state.mean == pytest.approx(streamer.state.mean)

    def test_scan_consumes_all_when_undecided(self, rng):
        values = rng.normal(0.0, 1.0, size=20)
        tester = StudentTester(alpha=0.01, min_workload=30)
        consumed, decision = tester.scan(values)
        assert consumed == 20
        assert decision is None

    def test_scan_empty_input(self):
        tester = StudentTester(alpha=0.05, min_workload=2)
        consumed, decision = tester.scan(np.array([]))
        assert consumed == 0
        assert decision is None

    def test_zero_variance_decides_immediately(self):
        tester = StudentTester(alpha=0.05, min_workload=2)
        tester.push_many(np.array([2.0, 2.0]))
        assert tester.decision() == 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            StudentTester(alpha=0.0, min_workload=2)
        with pytest.raises(ValueError):
            StudentTester(alpha=0.05, min_workload=1)

    def test_reset_clears_state(self):
        tester = StudentTester(alpha=0.05, min_workload=2)
        tester.push_many(np.array([1.0, 2.0]))
        tester.reset()
        assert tester.n == 0

    @staticmethod
    def _reference_codes(alpha, n, mean, s2):
        """The textbook form: sample variance, t margin, interval test."""
        n = np.asarray(n)
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (s2 - nf * mean * mean) / (nf - 1.0)
            var = np.where(nf >= 2, np.maximum(var, 0.0), np.nan)
            tq = t_quantiles(alpha, max(int(n.max()) - 1, 1))
            margin = tq[np.clip(n - 1, 0, len(tq) - 1)] * np.sqrt(var / n)
        codes = np.zeros(mean.shape, dtype=np.int8)
        valid = (n >= 2) & np.isfinite(margin)
        codes[valid & (mean - margin > 0.0)] = 1
        codes[valid & (mean + margin < 0.0)] = -1
        return codes

    def test_decision_codes_match_the_textbook_form_bit_for_bit(self):
        # A racing round's shape: running moments plus each prefix of a
        # draw, including n = 1 cells and exactly-zero variance.
        rng = np.random.default_rng(3)
        values = np.round(rng.normal(0.3, 1.0, size=(400, 30)), 1)
        values[:5] = 0.7  # zero variance: the margin is exactly 0
        n0 = rng.integers(0, 60, size=(400, 1))
        n = n0 + np.arange(1, 31)
        s1 = rng.normal(size=(400, 1)) + np.cumsum(values, axis=1)
        s2 = rng.uniform(0, 5, size=(400, 1)) + np.cumsum(values**2, axis=1)
        mean = s1 / n
        for alpha in (0.05, 0.2):
            np.testing.assert_array_equal(
                StudentTester(alpha=alpha, min_workload=2).decision_codes(n, mean, s2),
                self._reference_codes(alpha, n, mean, s2),
            )

    def test_decision_code_tables_cover_every_count(self):
        # The per-n lookup tables against the textbook form: n = 0 and 1
        # (no variance), n = 2 (the first variance), the cold-start
        # workload, counts past the tables' first size, which makes them
        # grow, and NaN means.  An alpha no other test uses starts the
        # tables small.  No cell may raise a floating-point warning.
        alpha, min_workload = 0.0731, 5
        tester = StudentTester(alpha=alpha, min_workload=min_workload)
        rng = np.random.default_rng(21)
        small = np.array([1, 2, min_workload, 30, 0])
        large = np.array([1, 2, min_workload, 30, 0, 511, 512, 513, 5000])
        for counts in (small, large):
            n = np.repeat(counts[None, :], 300, axis=0)
            mean = rng.normal(0.0, 0.6, size=n.shape)
            # Second moments around the variance that puts each mean near
            # its interval's edge, so both verdicts and ties occur.
            s2 = n * mean**2 + (n - 1) * rng.uniform(0.05, 3.0, size=n.shape)
            mean[::7, 2] = np.nan
            with np.errstate(all="raise"):
                codes = tester.decision_codes(n, mean, s2)
            np.testing.assert_array_equal(
                codes, self._reference_codes(alpha, n, mean, s2)
            )
            assert np.all(codes[:, [0, 4]] == 0)  # under two samples: no verdict
            assert np.all(codes[::7, 2] == 0)  # a NaN mean never decides
            assert np.any(codes[:, 1:] == 1) and np.any(codes[:, 1:] == -1)
        assert tester._tables[0].size > 5000  # the tables grew


class TestSteinTester:
    def test_decides_clear_signal(self, rng):
        tester = SteinTester(alpha=0.05, min_workload=2)
        consumed, decision = tester.scan(rng.normal(2.0, 0.5, size=200))
        assert decision == 1
        assert consumed < 200

    def test_stopping_rule_matches_two_stage_algorithm5(self):
        # At the stopping point, S²_stage · L⁻² · t²_{α/2, I-1} <= w must
        # hold — with the variance and df frozen at the first stage.
        rng = np.random.default_rng(5)
        tester = SteinTester(alpha=0.05, min_workload=10, epsilon=1e-9)
        consumed, decision = tester.scan(rng.normal(1.0, 1.0, size=1000))
        assert decision == 1
        state = tester.state
        half_width = abs(state.mean) - 1e-9
        required = (
            tester.stage_variance
            * t_quantile(0.05, tester.stage_df) ** 2
            / half_width**2
        )
        assert required <= state.n

    def test_stage_variance_frozen_at_cold_start(self, rng):
        tester = SteinTester(alpha=0.05, min_workload=10)
        first_stage = rng.normal(0.0, 1.0, size=10)
        consumed, _ = tester.scan(first_stage)
        assert consumed == 10
        frozen = tester.stage_variance
        assert frozen == pytest.approx(np.var(first_stage, ddof=1))
        tester.scan(rng.normal(0.0, 5.0, size=50))  # wilder second stage
        assert tester.stage_variance == frozen  # still the stage-1 estimate

    def test_differs_from_student_on_some_streams(self):
        # The two-stage freeze is what distinguishes Stein from Student
        # (the literal Algorithm-5 reading coincides with Algorithm 1).
        differing = 0
        for seed in range(60):
            values = np.random.default_rng(seed).normal(0.35, 1.0, size=3000)
            s = StudentTester(alpha=0.05, min_workload=30)
            cs, _ = s.scan(values)
            t = SteinTester(alpha=0.05, min_workload=30)
            ct, _ = t.scan(values)
            if cs != ct:
                differing += 1
        assert differing > 0

    def test_negative_signal(self, rng):
        tester = SteinTester(alpha=0.05, min_workload=2)
        _, decision = tester.scan(rng.normal(-1.5, 0.5, size=500))
        assert decision == -1

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            SteinTester(alpha=0.05, min_workload=2, epsilon=0.0)

    def test_comparable_workload_to_student(self, rng):
        # Table 3 / Figure 17: Stein and Student are analogous.
        student_w, stein_w = [], []
        for seed in range(20):
            values = np.random.default_rng(seed).normal(0.5, 1.0, size=2000)
            s = StudentTester(alpha=0.05, min_workload=30)
            c1, d1 = s.scan(values)
            t = SteinTester(alpha=0.05, min_workload=30)
            c2, d2 = t.scan(values)
            assert d1 == d2 == 1
            student_w.append(c1)
            stein_w.append(c2)
        ratio = np.mean(stein_w) / np.mean(student_w)
        assert 0.5 < ratio < 2.0


class TestHoeffdingTester:
    def test_binary_workload_matches_equation3(self):
        # A perfectly one-sided ±1 stream decides once the half-width
        # drops below 1: n = ceil(2 ln(2/alpha)).
        alpha = 0.05
        tester = HoeffdingTester(alpha=alpha, min_workload=2, value_range=2.0)
        consumed, decision = tester.scan(np.ones(100))
        assert decision == 1
        assert consumed == math.ceil(2.0 * math.log(2.0 / alpha))

    def test_undecided_on_balanced_votes(self):
        tester = HoeffdingTester(alpha=0.05, min_workload=2, value_range=2.0)
        votes = np.tile([1.0, -1.0], 50)
        consumed, decision = tester.scan(votes)
        assert decision is None
        assert consumed == 100

    def test_needs_more_samples_than_student(self, rng):
        values = rng.normal(0.5, 1.0, size=5000)
        binary = np.sign(values)
        student = StudentTester(alpha=0.05, min_workload=30)
        c_student, _ = student.scan(values)
        hoeffding = HoeffdingTester(alpha=0.05, min_workload=30, value_range=2.0)
        c_hoeffding, d = hoeffding.scan(binary)
        assert d in (1, None)
        assert c_hoeffding > c_student

    def test_value_range_validated(self):
        with pytest.raises(ValueError):
            HoeffdingTester(alpha=0.05, min_workload=2, value_range=0.0)


class TestMakeTester:
    def test_builds_each_kind(self):
        assert isinstance(
            make_tester(ComparisonConfig(estimator="student")), StudentTester
        )
        assert isinstance(
            make_tester(ComparisonConfig(estimator="stein")), SteinTester
        )
        tester = make_tester(
            ComparisonConfig(estimator="hoeffding"), value_range=2.0
        )
        assert isinstance(tester, HoeffdingTester)
        assert tester.value_range == 2.0

    def test_hoeffding_requires_range(self):
        with pytest.raises(ValueError):
            make_tester(ComparisonConfig(estimator="hoeffding"))

    def test_inherits_config(self):
        config = ComparisonConfig(confidence=0.9, min_workload=5)
        tester = make_tester(config)
        assert tester.alpha == pytest.approx(0.1)
        assert tester.min_workload == 5


class TestCoverage:
    """Statistical guarantees: the confidence level is actually honoured."""

    @pytest.mark.parametrize("tester_cls", [StudentTester, SteinTester])
    def test_false_verdict_rate_below_alpha(self, tester_cls):
        # A pair with a true positive mean: verdicts of -1 are errors and
        # must occur with probability < alpha (here: far less, since most
        # runs simply take longer rather than erring).
        alpha = 0.10
        errors = 0
        trials = 300
        for seed in range(trials):
            values = np.random.default_rng(seed).normal(0.3, 1.0, size=3000)
            tester = tester_cls(alpha=alpha, min_workload=30)
            _, decision = tester.scan(values)
            if decision == -1:
                errors += 1
        assert errors / trials < alpha
