"""The Outcome enum."""

from repro.core.outcomes import Outcome


def test_from_code():
    assert Outcome.from_code(1) is Outcome.LEFT
    assert Outcome.from_code(-1) is Outcome.RIGHT
    assert Outcome.from_code(0) is Outcome.TIE
    assert Outcome.from_code(None) is Outcome.TIE


def test_flipped_is_involutive():
    for outcome in Outcome:
        assert outcome.flipped().flipped() is outcome


def test_flipped_swaps_sides():
    assert Outcome.LEFT.flipped() is Outcome.RIGHT
    assert Outcome.TIE.flipped() is Outcome.TIE


def test_decided():
    assert Outcome.LEFT.decided
    assert Outcome.RIGHT.decided
    assert not Outcome.TIE.decided
