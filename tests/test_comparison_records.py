"""ComparisonRecord semantics across all outcomes."""

import pytest

from repro.core.comparison import ComparisonRecord
from repro.core.outcomes import Outcome


def record(outcome, cost=30, workload=30, mean=0.5):
    return ComparisonRecord(
        left=3, right=7, outcome=outcome, workload=workload,
        cost=cost, rounds=1, mean=mean, std=1.0,
    )


class TestWinnerLoser:
    def test_left_win(self):
        rec = record(Outcome.LEFT)
        assert rec.winner == 3
        assert rec.loser == 7

    def test_right_win(self):
        rec = record(Outcome.RIGHT)
        assert rec.winner == 7
        assert rec.loser == 3

    def test_tie_has_neither(self):
        rec = record(Outcome.TIE)
        assert rec.winner is None
        assert rec.loser is None


class TestFromCache:
    def test_cached_when_free_but_backed(self):
        assert record(Outcome.LEFT, cost=0, workload=30).from_cache

    def test_not_cached_when_paid(self):
        assert not record(Outcome.LEFT, cost=30, workload=30).from_cache

    def test_empty_record_is_not_cached(self):
        assert not record(Outcome.TIE, cost=0, workload=0).from_cache


class TestImmutability:
    def test_frozen(self):
        rec = record(Outcome.LEFT)
        with pytest.raises(AttributeError):
            rec.cost = 99

    def test_equality_by_value(self):
        assert record(Outcome.LEFT) == record(Outcome.LEFT)
        assert record(Outcome.LEFT) != record(Outcome.RIGHT)
