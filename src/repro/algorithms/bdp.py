"""Bayesian Decision Process top-k ranker (Chen, Jiao & Lin — PAPERS.md).

A second algorithm *family* next to SPR: instead of the paper's
select/partition/rank pipeline over confidence-tested comparisons, BDP
keeps a Bayesian posterior over every item's latent score and *actively*
chooses, one step ahead, the comparison whose outcome is expected to
shrink the posterior ranking loss the most.

Model.  Item ``i`` carries a latent score ``θ_i ~ Gamma(a_i, 1)``
(independent across items; the prior is uniform ``a_i = prior_shape``).
A crowd judgment on pair ``(i, j)`` favours ``i`` with probability
``θ_i / (θ_i + θ_j)`` — the Bradley–Terry form — whose posterior
predictive is simply ``a_i / (a_i + a_j)`` because the ratio
``θ_i / (θ_i + θ_j)`` is Beta(``a_i``, ``a_j``).

Moment-matched update.  Conditioning on "i beat j" breaks the Gamma
family, so the posterior is projected back by moment matching.  Writing
``s = a_i + a_j``, a win multiplies the Beta ratio's first parameter by
conditioning (Beta(``a_i``, ``a_j``) → Beta(``a_i + 1``, ``a_j``)) while
the independent total ``θ_i + θ_j ~ Gamma(s, 1)`` is untouched; matching
first moments of ``θ = ratio · total`` gives the sum-preserving rule

    a_i ← (a_i + 1) · s / (s + 1),    a_j ← a_j · s / (s + 1).

The winner's pairwise mean strictly increases (``(a_i+1)/(s+1) > a_i/s``
whenever ``a_j > 0``), repeated wins drive the loser's shape toward 0,
and a *tie* — the two posteriors' marginal-likelihood-weighted average of
the win/lose projections — is exactly the prior, so ties carry no update.

One-step lookahead.  The ranking loss of a shape vector is the summed
posterior probability of mis-ordering each pair,
``Σ_{i<j} e(a_i, a_j)`` with ``e`` the incomplete-beta tail of
:func:`repro.core.stopping.pair_error` (symmetrized).  Each candidate
pair is scored by the *expected* loss after observing its outcome; the
naive reference (``mhacks__MDredd``'s ``BDPLoop.py``, SNIPPETS.md) walks
Python loops over every pair × outcome × affected pair — O(K⁴) betainc
calls.  :func:`score_pairs` computes the same matrix with array betainc
work: only rows of the two touched items change, and the change
decomposes into row sums over two ``(K, K, K)`` tensors,
``e(W[p, q], A_l)`` and ``e(L[p, q], A_l)``, for the shapes ``W`` and
``L`` an item takes after winning or losing — about ``2K³`` betainc
cells for a call from scratch.  Each query instead keeps a
:class:`LookaheadMemo` of those cells: a cell depends only on the shapes
of the items it names, so a call recomputes just the cells of items
whose shape bits changed since the last call, and only on rows of pairs
that can still be bought.  A one-pair round moves two shapes, so the
next call needs O(K²) cells: about 500 per call over the ``bdp_jester``
benchmark's queries, against 2,600 for the full computation, with
every score bit-identical.  The memo costs ``2·K³`` floats per query,
which is why a query is capped at :data:`MAX_ITEMS` items.
:func:`score_pairs_reference` keeps the O(K⁴) scalar form as the
property-test oracle.

Verdict-backed boundary refinement.  The moment-matched shape vector is
a *score* aggregate: its total mass is conserved, so the induced ranking
can disagree with the purchased verdicts themselves near the top-k
boundary (empirically ~2% of boundary slots flip even with every verdict
correct — an order-dependence of the projection, not a judgment error).
To make the returned set's accuracy hang on the ``1 - α`` comparisons
rather than on projection artifacts, a final refinement pass takes the
top ``k + boundary_pad`` items by shape, purchases any pairs among them
the lookahead never bought (a no-op when the loop ran to exhaustion),
and ranks the candidate set by its direct-verdict Copeland score with
shape tie-breaks.  A true top-k item is then missed only when the
shapes are off by more than ``boundary_pad`` positions or a direct
verdict is actually wrong — which is what the Monte-Carlo guarantee
checker measures against the Wilson bound (``bdp_recall``).

Every comparison is purchased through :meth:`CrowdSession.compare_many`,
so BDP inherits the racing kernel, fault injection, budget/latency
ledgers, telemetry, and checkpoint/resume for free.  Stopping is
pluggable (:mod:`repro.core.stopping`): the paper-style per-comparison
confidence rule by default, or the PAC ``(ε, δ)`` rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import betainc

from ..core.stopping import (
    ConfidenceStopping,
    RankingStopping,
    stopping_from_document,
)
from ..core.topk import top_k_indices
from ..errors import AlgorithmError
from .base import TopKOutcome, measured, validate_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crowd.session import CrowdSession

__all__ = [
    "MAX_ITEMS",
    "BDPRanker",
    "LookaheadMemo",
    "bdp_topk",
    "resume_bdp_topk",
    "moment_match",
    "score_pairs",
    "score_pairs_reference",
]

#: Largest working set BDP answers.  A query's lookahead memo holds
#: ``2·K³`` floats (32 MiB at 128 items) and its first scorer call
#: evaluates as many betainc cells, so a larger query is refused before
#: anything is bought rather than left to exhaust memory or run for hours.
MAX_ITEMS = 128


def _sym_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Posterior probability the lower-shaped item actually wins.

    ``I_{1/2}(max, min)`` — the symmetric mis-ordering risk of a pair
    (0.5 at equality, shrinking with evidence).  Broadcasts.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return betainc(np.maximum(a, b), np.minimum(a, b), 0.5)


#: Smallest Gamma shape :func:`moment_match` leaves: the square root of
#: the smallest normal float, so the scorer's products of two shapes stay
#: positive.  A long losing streak against weak winners shrinks a shape
#: geometrically, and without the floor it underflows to 0.0, where
#: ``A_i / (A_i + A_j)`` is NaN for two such items.
SHAPE_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def moment_match(winner_shape: float, loser_shape: float) -> tuple[float, float]:
    """Posterior Gamma shapes after the winner beats the loser.

    Sum-preserving projection (see module docstring): both shapes stay
    positive, the winner's pairwise mean strictly increases, the
    loser's decreases, down to :data:`SHAPE_FLOOR`.
    """
    total = winner_shape + loser_shape
    scale = total / (total + 1.0)
    return (winner_shape + 1.0) * scale, max(loser_shape * scale, SHAPE_FLOOR)


def ranking_loss(shapes: np.ndarray) -> float:
    """Summed posterior mis-ordering probability over all pairs."""
    shapes = np.asarray(shapes, dtype=np.float64)
    errors = _sym_error(shapes[:, None], shapes[None, :])
    return float(np.triu(errors, 1).sum())


class LookaheadMemo:
    """One query's betainc cells for :func:`score_pairs`, kept between calls.

    ``shapes`` holds the shapes the cells were last computed for (NaN
    before the first call, so that call computes every cell).  ``errors``
    is ``e(A_i, A_j)``; ``tensor[0]`` is ``e(W[p, q], A_l)`` and
    ``tensor[1]`` is ``e(L[p, q], A_l)``; ``shared`` is
    ``e(W[p, q], L[q, p])``.  Rows of pairs outside the ``available``
    mask are left stale, so the mask passed with one memo may only
    shrink from call to call.
    """

    def __init__(self, n: int) -> None:
        self.shapes = np.full(n, np.nan)
        self.errors = np.zeros((n, n))
        self.tensor = np.zeros((2, n, n, n))
        self.shared = np.zeros((n, n))


def score_pairs(
    shapes: np.ndarray,
    available: np.ndarray | None = None,
    memo: LookaheadMemo | None = None,
) -> np.ndarray:
    """Expected ranking-loss change from comparing each pair, vectorized.

    Returns a symmetric ``(K, K)`` matrix whose ``[i, j]`` entry is
    ``E[loss after comparing (i, j)] − loss now`` for every pair in
    ``available`` (a boolean mask of pairs ``i < j``; ``None``: every
    pair) and NaN elsewhere, the diagonal included; the most informative
    pair is the *minimum*.  Matches
    :func:`score_pairs_reference` to float64 round-off while replacing
    its O(K⁴) scalar loop nest with array betainc work.  With ``memo``
    (:class:`LookaheadMemo`) only the cells whose inputs changed since
    the memo's last call are recomputed; every score is bit-identical to
    a call without one.
    """
    A = np.asarray(shapes, dtype=np.float64)
    K = A.size
    if K < 2:
        return np.full((K, K), np.nan)
    if memo is None:
        memo = LookaheadMemo(K)
    rows = ~np.eye(K, dtype=bool) if available is None else available | available.T
    S2 = A[:, None] + A[None, :]
    P = A[:, None] / S2  # P[i, j] = posterior predictive that i beats j
    W = (A[:, None] + 1.0) * S2 / (S2 + 1.0)  # i's shape after beating j
    L = A[:, None] * S2 / (S2 + 1.0)  # i's shape after losing to j

    # A cell depends only on the shapes of the items it names: W[p, q]
    # and L[p, q] are elementwise in A_p and A_q.  So only cells naming
    # an item whose shape bits changed need betainc again.
    changed = A.view(np.uint64) != memo.shapes.view(np.uint64)
    if changed.any():
        memo.shapes = A.copy()
        E = memo.errors  # current pair errors, diag 0.5
        c = np.flatnonzero(changed)
        E[c] = _sym_error(A[c, None], A[None, :])
        E[:, c] = E[c].T  # e is symmetric in its two shapes
        touched = rows & (changed[:, None] | changed[None, :])
        p, q = np.nonzero(touched)
        memo.shared[p, q] = _sym_error(W[p, q], L[q, p])
        # A touched row needs every l; any other row only the changed l.
        p, q, l = np.nonzero(touched[:, :, None] | (rows[:, :, None] & changed))
        memo.tensor[:, p, q, l] = _sym_error(np.stack((W[p, q], L[p, q])), A[l])

    R = memo.errors.sum(axis=1)
    # Loss terms involving i or j right now: their rows against everyone
    # else, plus the pair itself (each R double-counts the 0.5 diagonal
    # and the shared e(i, j)).
    cur = R[:, None] + R[None, :] - 1.0 - memo.errors

    # sums[v, i, j] = Σ_{l ∉ {i,j}} e(V[i, j], A_l) for V = (W, L): the
    # updated item's new row sum against the untouched items.  The l = i
    # and l = j terms are the tensor's own cells.
    T = memo.tensor
    at_i = np.diagonal(T, axis1=1, axis2=3).transpose(0, 2, 1)  # T[v, i, j, i]
    at_j = np.diagonal(T, axis1=2, axis2=3)  # T[v, i, j, j]
    sums = T.sum(axis=3) - at_i - at_j
    # If i beats j: i moves to W[i, j], j to L[j, i]; all terms that
    # change are the two new row sums plus the new shared pair error.
    win = sums[0] + sums[1].T + memo.shared
    scores = P * win + (1.0 - P) * win.T - cur
    scores[~rows] = np.nan
    return scores


def score_pairs_reference(shapes: np.ndarray) -> np.ndarray:
    """Scalar O(K⁴) reference for :func:`score_pairs` (tests/bench only).

    Recomputes the full ranking loss from scratch for every pair and
    outcome — the shape of the naive ``BDPLoop.py`` reference this repo
    vectorizes away.
    """
    A = np.asarray(shapes, dtype=np.float64)
    K = A.size
    out = np.full((K, K), np.nan)
    base = ranking_loss(A)
    for i in range(K):
        for j in range(i + 1, K):
            p = A[i] / (A[i] + A[j])
            if_i = A.copy()
            if_i[i], if_i[j] = moment_match(A[i], A[j])
            if_j = A.copy()
            if_j[j], if_j[i] = moment_match(A[j], A[i])
            score = p * ranking_loss(if_i) + (1.0 - p) * ranking_loss(if_j) - base
            out[i, j] = out[j, i] = score
    return out


def _select_round_pairs(state: "_BDPState", count: int) -> list[tuple[int, int]]:
    """Greedily pick up to ``count`` disjoint available pairs by ascending score.

    Disjointness makes the round's moment-matching updates commute, so
    batching comparisons cannot change what a sequential pass would have
    concluded from the same verdicts.  Ties in score break on ``(i, j)``
    index order — fully deterministic, no RNG involved.
    """
    shapes, available = state.shapes, state.available
    scores = score_pairs(shapes, available, state.lookahead)
    ii, jj = np.nonzero(available)
    if ii.size == 0:
        return []
    order = np.lexsort((jj, ii, scores[ii, jj]))
    chosen: list[tuple[int, int]] = []
    used = np.zeros(shapes.size, dtype=bool)
    for pos in order:
        i, j = int(ii[pos]), int(jj[pos])
        if used[i] or used[j]:
            continue
        chosen.append((i, j))
        used[i] = used[j] = True
        if len(chosen) >= count:
            break
    return chosen


@dataclass(frozen=True)
class BDPRanker:
    """The BDP ranker with its knobs bundled, mirroring :class:`SPRConfig`.

    Attributes
    ----------
    stopping:
        When the posterior justifies answering
        (:mod:`repro.core.stopping`); ``None`` uses the per-comparison
        confidence rule at the session's ``α``.
    pairs_per_round:
        Disjoint comparisons purchased per lookahead round.  1 is the
        strictly-sequential policy of the reference; larger values trade
        a little lookahead fidelity for latency.
    max_comparisons:
        Hard cap on purchased comparisons (``None`` = every pair once).
    prior_shape:
        The uniform prior ``a_i``; larger values damp early updates.
    boundary_pad:
        How far past ``k`` the verdict-backed refinement looks (module
        docstring); ``0`` disables refinement and returns the raw
        posterior ranking.
    """

    stopping: RankingStopping | None = None
    pairs_per_round: int = 1
    max_comparisons: int | None = None
    prior_shape: float = 1.0
    boundary_pad: int = 2

    def __post_init__(self) -> None:
        if self.pairs_per_round < 1:
            raise AlgorithmError(
                f"pairs_per_round must be >= 1, got {self.pairs_per_round}"
            )
        if self.max_comparisons is not None and self.max_comparisons < 1:
            raise AlgorithmError(
                f"max_comparisons must be >= 1, got {self.max_comparisons}"
            )
        if not self.prior_shape > 0:
            raise AlgorithmError(
                f"prior_shape must be > 0, got {self.prior_shape}"
            )
        if self.boundary_pad < 0:
            raise AlgorithmError(
                f"boundary_pad must be >= 0, got {self.boundary_pad}"
            )

    def rank(
        self, session: "CrowdSession", item_ids: list[int], k: int
    ) -> TopKOutcome:
        """Answer the top-k query (see :func:`bdp_topk`)."""
        return bdp_topk(
            session,
            item_ids,
            k,
            stopping=self.stopping,
            pairs_per_round=self.pairs_per_round,
            max_comparisons=self.max_comparisons,
            prior_shape=self.prior_shape,
            boundary_pad=self.boundary_pad,
        )


class _BDPState:
    """Mutable loop state shared with the checkpoint provider."""

    def __init__(self, ids: list[int], shapes: np.ndarray) -> None:
        n = len(ids)
        self.ids = ids
        self.shapes = shapes
        # verdicts[i, j] for i < j: +1 item i won, -1 item j won, 0 tie;
        # the aligned `available` mask (pairs i < j never bought) tells
        # purchased ties from untouched pairs.  A pair is bought at most
        # once, so `available` only shrinks.
        self.verdicts = np.zeros((n, n), dtype=np.int8)
        self.available = np.triu(np.ones((n, n), dtype=bool), 1)
        self.comparisons = 0
        self.ties = 0
        # Lives and dies with the query: a resumed query starts empty.
        self.lookahead = LookaheadMemo(n)


def bdp_topk(
    session: "CrowdSession",
    item_ids: list[int],
    k: int,
    *,
    stopping: RankingStopping | None = None,
    pairs_per_round: int = 1,
    max_comparisons: int | None = None,
    prior_shape: float = 1.0,
    boundary_pad: int = 2,
) -> TopKOutcome:
    """Answer the crowdsourced top-k query over ``item_ids`` with BDP.

    Loop: score every not-yet-purchased pair one step ahead, buy the
    ``pairs_per_round`` most informative disjoint ones through
    :meth:`~repro.crowd.session.CrowdSession.compare_many`, moment-match
    the posteriors on the verdicts, checkpoint at the round boundary,
    and stop as soon as ``stopping`` is satisfied (default: the
    confidence rule at the session's ``α``).  Each pair is purchased at
    most once — a replayed cache verdict would double-count evidence at
    zero cost — and ties simply retire their pair.  The top-k is read
    off the posterior shapes after the verdict-backed boundary
    refinement (module docstring).
    """
    ranker = BDPRanker(  # reuse its validation
        stopping=stopping,
        pairs_per_round=pairs_per_round,
        max_comparisons=max_comparisons,
        prior_shape=prior_shape,
        boundary_pad=boundary_pad,
    )
    ids = validate_query(item_ids, k)
    _check_size(len(ids))
    rule = ranker.stopping
    if rule is None:
        rule = ConfidenceStopping(alpha=session.config.alpha)
    state = _BDPState(ids, np.full(len(ids), float(prior_shape)))
    return _run(session, state, k, rule, ranker, session.spent())


def resume_bdp_topk(session: "CrowdSession") -> TopKOutcome:
    """Finish a BDP query from a restored session's checkpoint state.

    ``session`` must come from :meth:`CrowdSession.restore` on a
    checkpoint written at a BDP round boundary.  The posterior, the
    consumed-pair set, and the stopping rule are revived exactly, and
    the session restores its RNG/cache/ledgers itself — so the resumed
    loop re-purchases the interrupted round from the identical stream
    and concludes with the same top-k and total cost as an
    uninterrupted run.
    """
    restored = session.restored_state
    if restored is None:
        raise AlgorithmError("session carries no restored checkpoint state")
    query = restored.get("query", {})
    if "bdp" not in query:
        raise AlgorithmError(
            "checkpoint does not hold an in-flight BDP query "
            f"(query keys: {sorted(query)})"
        )
    doc = query["bdp"]
    ids = [int(i) for i in doc["items"]]
    _check_size(len(ids))
    state = _BDPState(ids, np.asarray(doc["shapes"], dtype=np.float64))
    for i, j, verdict in doc["consumed"]:
        state.available[int(i), int(j)] = False
        state.verdicts[int(i), int(j)] = int(verdict)
    state.comparisons = int(doc["comparisons"])
    state.ties = int(doc["ties"])
    ranker = BDPRanker(
        stopping=stopping_from_document(doc["stopping"]),
        pairs_per_round=int(doc["pairs_per_round"]),
        max_comparisons=doc["max_comparisons"],
        prior_shape=float(doc["prior_shape"]),
        boundary_pad=int(doc["boundary_pad"]),
    )
    spent_before = (int(doc["cost_before"]), int(doc["rounds_before"]))
    outcome = _run(session, state, int(doc["k"]), ranker.stopping, ranker, spent_before)
    outcome.extras["resumed"] = True
    return outcome


def _check_size(n: int) -> None:
    if n > MAX_ITEMS:
        raise AlgorithmError(
            f"BDP answers at most {MAX_ITEMS} items, got {n}: its lookahead "
            f"keeps 2·n³ floats per query"
        )


def _run(
    session: "CrowdSession",
    state: _BDPState,
    k: int,
    rule: RankingStopping,
    ranker: BDPRanker,
    spent_before: tuple[int, int],
) -> TopKOutcome:
    """The shared fresh/resumed BDP loop."""
    ids = state.ids
    cap = ranker.max_comparisons

    def _provider() -> dict:
        ii, jj = np.nonzero(np.triu(~state.available, 1))
        return {
            "items": list(ids),
            "k": k,
            "shapes": [float(a) for a in state.shapes],
            "consumed": [
                [int(i), int(j), int(state.verdicts[i, j])]
                for i, j in zip(ii, jj)
            ],
            "comparisons": state.comparisons,
            "ties": state.ties,
            "stopping": rule.to_document(),
            "pairs_per_round": ranker.pairs_per_round,
            "max_comparisons": cap,
            "prior_shape": ranker.prior_shape,
            "boundary_pad": ranker.boundary_pad,
            "cost_before": spent_before[0],
            "rounds_before": spent_before[1],
        }

    def _publish_progress() -> None:
        # At a round boundary; the loss is left to whoever reads it.
        session.publish_progress("bdp", {
            "comparisons": state.comparisons,
            "ties": state.ties,
            "loss": partial(ranking_loss, state.shapes.copy()),
        })

    def _purchase(pairs: list[tuple[int, int]]) -> None:
        """Buy ``pairs`` through the session and fold in the verdicts."""
        records = session.compare_many([(ids[i], ids[j]) for i, j in pairs])
        for (i, j), code in zip(pairs, records.codes.tolist()):
            state.available[i, j] = False
            state.comparisons += 1
            if not code:
                state.ties += 1
                continue
            w, l = (i, j) if code > 0 else (j, i)
            state.verdicts[i, j] = code
            state.shapes[w], state.shapes[l] = moment_match(
                state.shapes[w], state.shapes[l]
            )
        _publish_progress()

    telemetry = session.telemetry
    owns_checkpoint = session.register_state_provider("bdp", _provider)
    _publish_progress()
    exhausted = False
    try:
        with telemetry.span("bdp.query", session=session, items=len(ids), k=k):
            while not rule.satisfied(state.shapes, k):
                unbought = int(np.count_nonzero(state.available))
                budget = unbought if cap is None else cap - state.comparisons
                if budget <= 0 or not unbought:
                    exhausted = True
                    break
                want = min(ranker.pairs_per_round, budget)
                _purchase(_select_round_pairs(state, want))
                if owns_checkpoint:
                    session.maybe_checkpoint()
            topk = _refine_boundary(
                session, state, k, ranker, cap, _purchase, owns_checkpoint
            )
    finally:
        if owns_checkpoint:
            session.unregister_state_provider("bdp")
        session.publish_progress("bdp", None)
    return measured(
        "bdp",
        session,
        [ids[t] for t in topk],
        spent_before,
        extras={
            "comparisons": state.comparisons,
            "ties": state.ties,
            "stopping": rule.to_document(),
            "stopping_satisfied": not exhausted,
            "loss": ranking_loss(state.shapes),
            "shapes": [float(a) for a in state.shapes],
        },
    )


def _refine_boundary(
    session: "CrowdSession",
    state: _BDPState,
    k: int,
    ranker: BDPRanker,
    cap: int | None,
    purchase,
    owns_checkpoint: bool,
) -> list[int]:
    """Verdict-backed top-k refinement (module docstring).

    Freezes the top ``k + boundary_pad`` items by shape, purchases the
    pairs among them the lookahead never bought (respecting
    ``max_comparisons``; a no-op after exhaustion), and ranks the
    candidates by Copeland score over their direct verdicts — wins 1,
    ties ½ — breaking score ties by posterior shape, then by index.
    Returns candidate *indices*, best first, length ``k``.
    """
    n = len(state.ids)
    pad = min(ranker.boundary_pad, n - k)
    if pad <= 0:
        return [int(t) for t in top_k_indices(state.shapes, k)]
    candidates = [int(t) for t in top_k_indices(state.shapes, k + pad)]
    missing = [
        (min(i, j), max(i, j))
        for pos, i in enumerate(candidates)
        for j in candidates[pos + 1 :]
        if state.available[min(i, j), max(i, j)]
    ]
    if cap is not None:
        missing = missing[: max(cap - state.comparisons, 0)]
    if missing:
        purchase(missing)
        if owns_checkpoint:
            session.maybe_checkpoint()
    scores: dict[int, float] = {c: 0.0 for c in candidates}
    for pos, i in enumerate(candidates):
        for j in candidates[pos + 1 :]:
            lo, hi = min(i, j), max(i, j)
            if state.available[lo, hi]:
                continue  # cap exhausted before this pair was purchasable
            verdict = int(state.verdicts[lo, hi])
            if verdict == 0:
                scores[i] += 0.5
                scores[j] += 0.5
            else:
                scores[i if (verdict == 1) == (i == lo) else j] += 1.0
    ordered = sorted(
        candidates,
        key=lambda c: (-scores[c], -state.shapes[c], c),
    )
    return ordered[:k]
