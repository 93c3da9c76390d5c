"""The declarative query description every front door accepts.

A :class:`QuerySpec` says *what* to answer — method, ``k``, the item
universe, the comparison configuration, the stopping policy riding inside
it, per-query SLAs, and the owning tenant — and
deliberately not *how*: the service (or the one-shot
:func:`~repro.service.runner.run_query`) turns it into a seeded
:class:`~repro.crowd.session.CrowdSession` plus an
:data:`~repro.algorithms.ALGORITHMS` dispatch.  One spec therefore runs
identically through ``crowd-topk query``, ``crowd-topk submit``,
``QueryService.submit``, or a direct library call — same seed, same
draws, same top-k.

Specs are frozen and JSON-round-trippable (:meth:`QuerySpec.to_document`
/ :func:`spec_from_document`); the service persists the document next to
the query's checkpoint so a killed process can rebuild and resume every
in-flight query.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from ..algorithms import ALGORITHMS, RESUMERS
from ..algorithms.bdp import MAX_ITEMS as BDP_MAX_ITEMS
from ..config import ComparisonConfig, comparison_config_from_dict
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.base import Dataset

__all__ = ["QuerySpec", "spec_from_document"]

@dataclass(frozen=True)
class QuerySpec:
    """One declarative top-k query.

    Attributes
    ----------
    method:
        Algorithm name from :data:`repro.algorithms.ALGORITHMS`
        (``"spr"``, ``"bdp"``, ``"tournament"``, …).
    k:
        Result size.
    dataset:
        Name of a built-in dataset providing items and crowd.  Required
        for durable (service) queries — a checkpoint can only be resumed
        if the oracle is reconstructible by name.
    items:
        Explicit working-set item ids; ``None`` defers to ``n_items``.
    n_items:
        Deterministic first-``n`` subset of the dataset (by id order)
        when ``items`` is ``None``; ``None`` means all items.  A
        ``bdp`` spec may name at most
        :data:`repro.algorithms.bdp.MAX_ITEMS` items either way.
    comparison:
        The per-comparison configuration (confidence, budget ``B``,
        batch ``η``, estimator, resilience).  The stopping policy of a
        comparison lives here (``estimator`` + ``pac_epsilon``).
    seed:
        Session seed — the whole query is a deterministic function of
        ``(spec, oracle)``.
    tenant:
        Owning tenant.  Scopes the shared judgment cache namespace, the
        fair-scheduling lane, and the per-tenant metrics.
    cost_sla:
        Hard microtask ceiling for the query (session
        ``max_total_cost``); crossing it raises
        :class:`~repro.errors.BudgetExhaustedError`.  Also the query's
        committed budget for admission control.
    latency_sla:
        Hard ceiling on latency rounds; crossing it raises
        :class:`~repro.errors.SLAExceededError` at the next spend.
    name:
        Display name for the observatory; defaults to
        ``tenant/method:k=K``.
    method_kwargs:
        Extra keyword arguments forwarded to the algorithm entry point
        (must be JSON-serializable for durable queries).  Bound
        against the entry point's signature at construction, so a
        keyword the method does not take is a :class:`ConfigError`.
    """

    method: str = "spr"
    k: int = 10
    dataset: str | None = "jester"
    items: tuple[int, ...] | None = None
    n_items: int | None = None
    comparison: ComparisonConfig = field(default_factory=ComparisonConfig)
    seed: int = 0
    tenant: str = "default"
    cost_sla: int | None = None
    latency_sla: int | None = None
    name: str | None = None
    method_kwargs: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in ALGORITHMS:
            raise ConfigError(
                f"unknown method {self.method!r}; "
                f"expected one of {sorted(ALGORITHMS)}"
            )
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.tenant:
            raise ConfigError("tenant must be non-empty")
        if self.dataset is None and self.items is None:
            raise ConfigError("a spec needs a dataset name or explicit items")
        if self.items is not None:
            object.__setattr__(self, "items", tuple(int(i) for i in self.items))
        if self.n_items is not None and self.n_items < self.k:
            raise ConfigError(
                f"n_items ({self.n_items}) must be >= k ({self.k})"
            )
        size = len(self.items) if self.items is not None else self.n_items
        if self.method == "bdp" and size is not None and size > BDP_MAX_ITEMS:
            raise ConfigError(
                f"bdp answers at most {BDP_MAX_ITEMS} items, got {size}"
            )
        if self.cost_sla is not None and self.cost_sla < 1:
            raise ConfigError(f"cost_sla must be >= 1, got {self.cost_sla}")
        if self.latency_sla is not None and self.latency_sla < 1:
            raise ConfigError(
                f"latency_sla must be >= 1, got {self.latency_sla}"
            )
        if not isinstance(self.comparison, ComparisonConfig):
            raise ConfigError(
                f"comparison must be a ComparisonConfig, "
                f"got {type(self.comparison).__name__}"
            )
        if not isinstance(self.method_kwargs, Mapping):
            raise ConfigError(
                f"method_kwargs must be a mapping, "
                f"got {type(self.method_kwargs).__name__}"
            )
        signature = inspect.signature(ALGORITHMS[self.method])
        try:
            signature.bind(None, [], self.k, **self.method_kwargs)
        except TypeError as exc:
            accepted = [
                p.name for p in signature.parameters.values()
                if p.kind is p.KEYWORD_ONLY
            ]
            raise ConfigError(
                f"bad method_kwargs for {self.method!r} ({exc}); "
                f"accepted keywords: {accepted or 'none'}"
            ) from None

    # ------------------------------------------------------------------
    @property
    def display_name(self) -> str:
        """The observatory label for this query."""
        if self.name:
            return self.name
        return f"{self.tenant}/{self.method}:k={self.k}"

    @property
    def resumable(self) -> bool:
        """Whether the method supports checkpoint resume."""
        return self.method in RESUMERS

    def resolve_items(self, dataset: "Dataset") -> list[int]:
        """The concrete working-set ids for this spec over ``dataset``.

        Explicit ``items`` win; otherwise the deterministic first
        ``n_items`` of the dataset by id order (``rng=None`` subsetting),
        so the same spec always races the same items.  Explicit items
        the dataset lacks raise :class:`ConfigError` naming every one.
        """
        if self.items is not None:
            known = set(dataset.items.ids.tolist())
            missing = [i for i in self.items if i not in known]
            if missing:
                raise ConfigError(
                    f"dataset {dataset.name!r} has no items {missing}"
                )
            return list(self.items)
        working = dataset.sample_items(self.n_items)
        return working.ids.tolist()

    def with_(self, **changes: object) -> "QuerySpec":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def to_document(self) -> dict:
        """A JSON-ready dict (inverse of :func:`spec_from_document`)."""
        return {
            "method": self.method,
            "k": self.k,
            "dataset": self.dataset,
            "items": list(self.items) if self.items is not None else None,
            "n_items": self.n_items,
            "comparison": asdict(self.comparison),
            "seed": self.seed,
            "tenant": self.tenant,
            "cost_sla": self.cost_sla,
            "latency_sla": self.latency_sla,
            "name": self.name,
            "method_kwargs": dict(self.method_kwargs),
        }


def spec_from_document(data: Mapping[str, object]) -> QuerySpec:
    """Revive a :class:`QuerySpec` from :meth:`QuerySpec.to_document`.

    Tolerates partial documents (HTTP submissions usually carry only a
    few fields); everything absent takes the spec's default.
    """
    payload = dict(data)
    payload.pop("id", None)  # service documents carry the handle id alongside
    unknown = set(payload) - {f.name for f in QuerySpec.__dataclass_fields__.values()}
    if unknown:
        raise ConfigError(f"unknown QuerySpec fields: {sorted(unknown)}")
    comparison = payload.get("comparison")
    if isinstance(comparison, Mapping):
        payload["comparison"] = comparison_config_from_dict(dict(comparison))
    items = payload.get("items")
    if items is not None:
        payload["items"] = tuple(int(i) for i in items)  # type: ignore[arg-type]
    return QuerySpec(**payload)  # type: ignore[arg-type]
