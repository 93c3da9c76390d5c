"""The cross-query judgment cache: namespaces, LRU bounds, counters.

Judgments are *reusable* (§5.3) — and in a multi-tenant service they are
reusable **across queries**: two queries from the same tenant over the
same dataset share every purchased comparison.  :class:`SharedJudgmentCache`
manages one :class:`TenantCache` per ``(tenant, dataset)`` namespace.
Tenants never see each other's judgments (they may be paying different
crowds different rates, and cross-tenant reuse would leak information
about another tenant's data), and one tenant's datasets never see each
other's either: item ids are per dataset, so pair ``(3, 7)`` on jester
and on imdb are different comparisons.  On top sit a global
byte/entry-bounded LRU over all stored pairs and per-tenant
hit/miss/eviction counters on the service's
:class:`~repro.telemetry.MetricsRegistry`.

A :class:`TenantCache` *is a* :class:`~repro.core.cache.JudgmentCache`,
so a per-query :class:`~repro.crowd.session.CrowdSession` plugs into it
unchanged via :meth:`CrowdSession.use_cache`.  Differences from the
single-query base class:

* every public entry point takes the shared lock (queries from the same
  tenant run concurrently on different worker threads);
* :meth:`defer_rows` stays deferred — the base class drains the queue
  before a read that may need it, and every entry point here holds the
  shared lock, so a concurrent query drains (under the lock) before it
  can observe a bag.  LRU and byte accounting run on the drain, once per
  drained slot, from the slots the drain wrote: the service's per-round
  bookkeeping is a standalone session's.  So that recency follows write
  order, a replay here drains the whole queue first, whatever it reads;
* reads and writes refresh the pair's LRU recency, and writes trigger
  eviction when the global bounds are exceeded;
* a cache replay reads, scans and writes back the bags' replay
  frontiers under one hold of the lock, so a frontier always describes
  the bag it was scanned from.

Eviction empties a whole bag and never truncates it, and resets the
bag's replay frontier: a racing pool that resolved the pair's slot
earlier and writes to it again simply starts a fresh bag.  Arrays handed out before the eviction stay valid (the value
log is append-only), the pair's next read is a miss, and no running
moment is ever corrupted.  Memory follows what is cached, not what was
ever raced: once dead log space (an evicted bag's region, or the region
a growing bag moved out of) exceeds a quarter of a namespace's live
judgments, its log is compacted, and once a namespace's empty slots
outnumber its live ones after an eviction, the slot table forgets their
pairs and hands their ids to new pairs.  Slot ids a racing pool still
holds may then name other pairs; the cache checks every id it is handed
against the slot's pair and looks up the stale ones again, so the
pool's writes land in the right bags.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from ..core.cache import JudgmentCache, Replay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import MetricsRegistry

__all__ = ["SharedJudgmentCache", "TenantCache"]

#: Accounting cost of one cached pair beyond its samples: the dict slots,
#: the key tuple, and the bag header.  Keeps the byte bound meaningful for
#: many tiny bags.
_ENTRY_OVERHEAD_BYTES = 128


class TenantCache(JudgmentCache):
    """One ``(tenant, dataset)`` namespace inside a :class:`SharedJudgmentCache`.

    Construct through :meth:`SharedJudgmentCache.tenant`, never directly.
    Thread-safe; safe to share between every concurrent query of the
    namespace.
    """

    def __init__(self, shared: "SharedJudgmentCache", tenant: str) -> None:
        super().__init__()
        self._shared = shared
        self._lock = shared._lock
        registry = shared.registry
        self._hit_counter = registry.counter(
            "service_cache_hits_total", tenant=tenant
        )
        self._miss_counter = registry.counter(
            "service_cache_misses_total", tenant=tenant
        )
        self._eviction_counter = registry.counter(
            "service_cache_evictions_total", tenant=tenant
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # hit/miss accounting (a hit = a read that found a non-empty bag)
    # ------------------------------------------------------------------
    def _record_reads(self, hits: int, misses: int) -> None:
        if hits:
            self.hits += hits
            self._hit_counter.add(hits)
        if misses:
            self.misses += misses
            self._miss_counter.add(misses)

    def _touch_slot(self, i: int, j: int) -> None:
        key, _ = self._key(i, j)
        self._shared._touch(self, self._slot_of[key])

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def bag(self, i: int, j: int) -> np.ndarray:
        with self._lock:
            values = super().bag(i, j)
            if values.size:
                self._touch_slot(i, j)
            self._record_reads(int(values.size > 0), int(values.size == 0))
            return values

    def replay(self, lefts, rights, limit, key, decide, *, slots) -> Replay | None:
        # Read, scan and frontier write-back under one hold of the lock,
        # so no eviction can empty a bag between its scan and write-back.
        with self._lock:
            # Drain whatever the replay reads: a drain may create the slots
            # looked up below, and it orders the recency of what it wrote
            # before this read touches it.
            if self._pending:
                self._drain()
            lefts = np.asarray(lefts)
            rights = np.asarray(rights)
            slots = self._checked_slots(lefts, rights, slots, create=False)
            lengths = self._sizes(slots)
            hit = slots[lengths > 0]
            for slot in hit.tolist():
                self._shared._touch(self, slot)
            self._record_reads(hit.size, lengths.size - hit.size)
            return self._replay(slots, lefts > rights, limit, key, decide)

    def moments(self, i: int, j: int) -> tuple[int, float, float]:
        with self._lock:
            n, mean, var = super().moments(i, j)
            if n:
                self._touch_slot(i, j)
            return n, mean, var

    def pairs(self) -> list[tuple[int, int]]:
        with self._lock:
            return super().pairs()

    @property
    def total_samples(self) -> int:
        with self._lock:
            return JudgmentCache.total_samples.fget(self)  # type: ignore[attr-defined]

    @property
    def empty(self) -> bool:
        with self._lock:
            return JudgmentCache.empty.fget(self)  # type: ignore[attr-defined]

    @property
    def pair_count(self) -> int:
        with self._lock:
            return JudgmentCache.pair_count.fget(self)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def slot_ids(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        with self._lock:
            return super().slot_ids(lefts, rights)

    def append(self, i: int, j: int, values: np.ndarray) -> None:
        with self._lock:
            super().append(i, j, values)
            key, _ = self._key(i, j)
            slot = self._slot_of.get(key)
            if slot is not None and self._n[slot]:
                self._shared._account(self, [slot])

    def defer_rows(self, lefts, rights, values, counts, *, slots) -> None:
        with self._lock:
            super().defer_rows(lefts, rights, values, counts, slots=slots)

    def _drain(self) -> np.ndarray:
        """Fold the queue, then account every slot it wrote, in the order
        of each slot's last write (recency follows write order, as an
        eager row-by-row append's would)."""
        slots = super()._drain()
        if slots.size:
            backwards = slots[::-1]
            unique, last = np.unique(backwards, return_index=True)
            self._shared._account(self, unique[np.argsort(-last)].tolist())
        return slots

    def settle(self) -> None:
        with self._lock:
            super().settle()

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self._shared._forget(self)


class SharedJudgmentCache:
    """Cross-query judgment storage for the service: one namespace per
    ``(tenant, dataset)``.

    Parameters
    ----------
    max_entries:
        Global bound on cached pairs across all tenants (``None`` =
        unbounded).  The least-recently-*used* pair is evicted first;
        both reads and writes refresh recency.
    max_bytes:
        Global bound on the accounted size of stored judgments
        (8 bytes per sample plus a fixed per-pair overhead).
    registry:
        The metrics registry the per-tenant counters and the global
        entry/byte gauges report into; defaults to the process registry
        at construction time.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if registry is None:
            from ..telemetry import get_registry

            registry = get_registry()
        self.registry = registry
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._namespaces: dict[tuple[str, str | None], TenantCache] = {}
        #: (namespace, slot) -> accounted bytes, in recency order (oldest
        #: first).
        self._lru: OrderedDict[tuple[TenantCache, int], int] = OrderedDict()
        self._bytes = 0
        self._entries_gauge = registry.gauge("service_cache_entries")
        self._bytes_gauge = registry.gauge("service_cache_bytes")

    # ------------------------------------------------------------------
    def tenant(self, name: str, dataset: str | None = None) -> TenantCache:
        """The (lazily created) cache namespace of tenant ``name`` for
        ``dataset``."""
        if not name:
            raise ValueError("tenant name must be non-empty")
        with self._lock:
            key = (name, dataset)
            cache = self._namespaces.get(key)
            if cache is None:
                cache = self._namespaces[key] = TenantCache(self, name)
            return cache

    def tenants(self) -> list[str]:
        """Names of every tenant with a namespace so far."""
        with self._lock:
            return sorted({name for name, _ in self._namespaces})

    @property
    def entries(self) -> int:
        """Cached pairs across all tenants."""
        with self._lock:
            return len(self._lru)

    @property
    def bytes(self) -> int:
        """Accounted bytes across all tenants."""
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        """A JSON-ready snapshot for the observatory's service document.

        Per-tenant figures sum over the tenant's dataset namespaces.
        """
        with self._lock:
            tenants: dict[str, dict[str, int]] = {}
            for (name, _), cache in self._namespaces.items():
                row = tenants.setdefault(
                    name, {"pairs": 0, "hits": 0, "misses": 0, "evictions": 0}
                )
                row["pairs"] += cache._live_pairs()
                row["hits"] += cache.hits
                row["misses"] += cache.misses
                row["evictions"] += cache.evictions
            return {
                "entries": len(self._lru),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "tenants": dict(sorted(tenants.items())),
            }

    # ------------------------------------------------------------------
    # internal accounting (callers hold the lock)
    # ------------------------------------------------------------------
    def _touch(self, cache: TenantCache, slot: int) -> None:
        entry = (cache, slot)
        if entry in self._lru:
            self._lru.move_to_end(entry)

    def _account(self, cache: TenantCache, slots: list[int]) -> None:
        """Refresh sizes/recency for freshly written ``slots``, in write
        order, then evict down to the bounds (a drain's earlier slots
        included: see :meth:`_evict_over_bounds`)."""
        lru = self._lru
        sizes = cache._n
        for slot in slots:
            entry = (cache, slot)
            new_bytes = 8 * int(sizes[slot]) + _ENTRY_OVERHEAD_BYTES
            self._bytes += new_bytes - lru.get(entry, 0)
            lru[entry] = new_bytes
            lru.move_to_end(entry)
        self._evict_over_bounds()

    def _over_bounds(self) -> bool:
        if self.max_entries is not None and len(self._lru) > self.max_entries:
            return True
        if self.max_bytes is not None and self._bytes > self.max_bytes:
            return True
        return False

    def _evict_over_bounds(self) -> None:
        """Pop least-recently-used pairs until back under both bounds.

        The hot end of the LRU, the bag the write touched last, is never
        evicted: one bag larger than the byte bound stays, transiently
        over it, rather than be emptied by its own write.  Every other
        bag may go, a drain's earlier bags too, so a drain folding more
        distinct pairs than ``max_entries`` still ends within the bound.
        Those judgments are bought and folded already; a racing pool
        that writes an evicted pair again starts a fresh bag.
        """
        lru = self._lru
        evicted: set[TenantCache] = set()
        while self._over_bounds() and len(lru) > 1:
            (cache, slot), accounted = lru.popitem(last=False)
            self._bytes -= accounted
            if cache._evict(slot):
                cache.evictions += 1
                cache._eviction_counter.inc()
                evicted.add(cache)
        for cache in evicted:
            cache._compact_if_sparse()
            # Racing pools resolve a slot for every pair they race, and
            # evictions empty slots: free the empty ones once they
            # outnumber the live, so the table tracks what is cached.
            if len(cache._slot_of) > 2 * cache._live_pairs():
                cache._free_empty_slots()
        self._entries_gauge.set(len(lru))
        self._bytes_gauge.set(self._bytes)

    def _forget(self, cache: TenantCache) -> None:
        """Drop LRU accounting for ``cache`` (its namespace was cleared)."""
        for entry in [e for e in self._lru if e[0] is cache]:
            self._bytes -= self._lru.pop(entry)
        self._entries_gauge.set(len(self._lru))
        self._bytes_gauge.set(self._bytes)
