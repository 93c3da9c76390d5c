"""SPR's defensive paths: the winner blow-up guard and recursion chains."""

import repro.core.spr.spr as spr_module
from repro.config import SPRConfig
from repro.core.spr import spr_topk
from repro.core.spr.select import SelectionResult
from repro.stats.reference import SamplingPlan
from tests.conftest import make_latent_session

SCORES = [float(i) for i in range(40)]


def _forced_selection(reference: int):
    """A select_reference stand-in pinning the reference deterministically.

    Recursive SPR calls re-select over a subset that may not contain the
    pinned id; those fall back to a mid-list member (any plausible pick —
    the tests only constrain the *outermost* reference).
    """

    def fake(session, ids, k, *, sweet_spot, budget_factor):
        members = [int(i) for i in ids]
        chosen = reference if reference in members else members[len(members) // 2]
        return SelectionResult(
            reference=chosen,
            plan=SamplingPlan(
                x=1, m=1, probability=1.0, comparison_budget=1, comparisons=0
            ),
            maxima=(chosen,),
            cost=0,
            rounds=0,
        )

    return fake


def clean_session(seed=0, **kwargs):
    defaults = dict(sigma=0.4, min_workload=5, batch_size=10, budget=200)
    defaults.update(kwargs)
    return make_latent_session(SCORES, seed=seed, **defaults)


class TestBlowUpGuard:
    def test_bottom_reference_triggers_requery(self, monkeypatch):
        # Reference = the worst item: every other item is a "winner".
        monkeypatch.setattr(spr_module, "select_reference", _forced_selection(0))
        session = clean_session()
        config = SPRConfig(comparison=session.config, max_reference_changes=0)
        result = spr_topk(session, list(range(40)), 5, config)
        assert result.recursed  # the guard re-queried the winner set
        assert list(result.topk) == [39, 38, 37, 36, 35]

    def test_guard_is_cheaper_than_sorting_everything(self, monkeypatch):
        monkeypatch.setattr(spr_module, "select_reference", _forced_selection(0))
        guarded = clean_session(seed=3)
        config = SPRConfig(comparison=guarded.config, max_reference_changes=0)
        guarded_cost = spr_topk(guarded, list(range(40)), 5, config).cost

        # An honest (unforced) run for scale: the guarded bad-reference run
        # must stay within a small multiple of it, not explode quadratically.
        honest = clean_session(seed=3)
        honest_cost = spr_topk(
            honest, list(range(40)), 5, SPRConfig(comparison=honest.config)
        ).cost
        assert guarded_cost < 4 * honest_cost

    def test_sweet_spot_reference_does_not_trigger(self, monkeypatch):
        monkeypatch.setattr(spr_module, "select_reference", _forced_selection(33))
        session = clean_session()
        config = SPRConfig(comparison=session.config, max_reference_changes=0)
        result = spr_topk(session, list(range(40)), 5, config)
        assert not result.recursed
        assert list(result.topk) == [39, 38, 37, 36, 35]


class TestRecursionChain:
    def test_top_reference_recurses_into_losers(self, monkeypatch):
        # Reference = the best item: W empty, recursion must fill all of k.
        monkeypatch.setattr(spr_module, "select_reference", _forced_selection(39))
        session = clean_session()
        config = SPRConfig(comparison=session.config, max_reference_changes=0)
        result = spr_topk(session, list(range(40)), 5, config)
        assert result.recursed
        # Line 13 keeps the reference as a winner; the rest comes from the
        # recursive call over the losers.
        assert list(result.topk) == [39, 38, 37, 36, 35]

    def test_reference_change_disabled_during_forced_runs(self, monkeypatch):
        monkeypatch.setattr(spr_module, "select_reference", _forced_selection(20))
        session = clean_session()
        config = SPRConfig(comparison=session.config, max_reference_changes=0)
        result = spr_topk(session, list(range(40)), 5, config)
        assert result.partition_result.reference == 20
        assert result.partition_result.reference_changes == 0
