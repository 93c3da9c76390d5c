"""The long-lived multi-tenant query service.

One process, many tenants, many concurrent top-k queries — all entering
through one front door::

    service = QueryService(max_workers=4, capacity=500_000)
    handle = service.submit(QuerySpec(method="spr", k=5, dataset="jester",
                                      tenant="acme", cost_sla=50_000))
    handle.result()          # blocks; bit-identical to a standalone run

Inside, :meth:`QueryService.submit` passes admission control (committed
budget vs capacity), parks or rejects over-capacity queries, and hands
admitted ones to a bounded worker pool.  Each query runs on its own
seeded :class:`~repro.crowd.session.CrowdSession` pointed at its
tenant's namespace of the shared cross-query judgment cache, with a
spend gate enforcing cancellation, the latency SLA, and fair
deficit-round-robin microtask allocation across tenants (the cost SLA is
the session's hard cost ceiling).  With ``state_dir`` set, every query's
spec document is persisted at submission and its session checkpoints at
round boundaries, so :meth:`QueryService.recover` in a fresh process
resumes every in-flight query exactly where it died.

Determinism contract: a query on a *cold* tenant namespace consumes the
same draws as the standalone run of its spec — the service adds tenancy,
scheduling and durability around the identical execution.  On a *warm*
namespace, earlier queries' judgments are reused (that is the point), so
verdicts match what a standalone run with that same pre-populated cache
would produce; which judgments are warm under concurrency depends on
round interleaving.  Recovered queries keep their private checkpointed
cache rather than re-joining the shared namespace — resume determinism
outranks sharing for the remainder of a recovered query.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import TYPE_CHECKING

from ..crowd.session import CrowdSession
from ..datasets import load_dataset
from ..errors import (
    BudgetExhaustedError,
    ConfigError,
    DatasetError,
    QueryCancelledError,
    ServiceError,
    SLAExceededError,
)
from ..telemetry import MetricsRegistry
from .cache import SharedJudgmentCache
from .runner import execute_spec, resume_session, session_for
from .scheduler import AdmissionController, FairMarketplace
from .spec import QuerySpec, spec_from_document

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import TopKOutcome

__all__ = ["QueryService", "QueryHandle"]

#: Sentinel shutting down a worker thread.
_STOP = object()

#: Handle lifecycle states.
STATUSES = ("queued", "running", "done", "failed", "cancelled")


class QueryHandle:
    """The caller's view of one submitted query.

    Returned by :meth:`QueryService.submit`; thread-safe.  ``status()``
    is a cheap snapshot, ``result()`` blocks, ``cancel()`` is
    best-effort immediate (a parked query dies instantly, a running one
    at its next spend).
    """

    def __init__(self, service: "QueryService", id: str, spec: QuerySpec) -> None:
        self._service = service
        self.id = id
        self.spec = spec
        self.commitment = spec.cost_sla or 0
        self.outcome: "TopKOutcome | None" = None
        self.error: BaseException | None = None
        self.resume_from: str | None = None
        self._status = "queued"
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._lane = None
        self._session: CrowdSession | None = None

    def status(self) -> str:
        """One of ``queued / running / done / failed / cancelled``."""
        return self._status

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the query finishes; False on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> "TopKOutcome":
        """The query's outcome, blocking until it finishes.

        Raises the query's terminal error for failed/cancelled queries
        and :class:`TimeoutError` if ``timeout`` elapses first.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query {self.id} still {self._status!r} after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.outcome is not None
        return self.outcome

    def cancel(self) -> bool:
        """Request cancellation; False if the query already finished."""
        return self._service._cancel(self)

    def to_document(self) -> dict:
        """A JSON-ready row for the observatory's ``/queries`` table."""
        spec = self.spec
        doc: dict = {
            "query": spec.display_name,
            "id": self.id,
            "tenant": spec.tenant,
            "method": spec.method,
            "k": spec.k,
            "status": self._status,
            "cost_sla": spec.cost_sla,
            "latency_sla": spec.latency_sla,
        }
        session = self._session
        if self._status == "running" and session is not None:
            doc.update(session.progress())
        elif self.outcome is not None:
            doc["cost"] = self.outcome.cost
            doc["rounds"] = self.outcome.rounds
            doc["topk"] = list(self.outcome.topk)
        elif self.error is not None:
            doc["error"] = f"{type(self.error).__name__}: {self.error}"
        return doc


class QueryService:
    """A long-lived scheduler of concurrent top-k queries (see module doc).

    Parameters
    ----------
    max_workers:
        Worker threads — queries running simultaneously.  Further
        admitted queries wait in the run queue.
    capacity:
        Admission-control bound on the summed ``cost_sla`` of unfinished
        queries (``None`` = unbounded).  Queries without a ``cost_sla``
        commit nothing against it.
    admission:
        ``"queue"`` (default) parks over-capacity submissions until
        capacity frees; ``"reject"`` raises
        :class:`~repro.errors.AdmissionError` from :meth:`submit`.
    marketplace_slots, quantum:
        Crowd-throughput arbitration: rounds in flight at once, and the
        DRR quantum in microtasks (see
        :class:`~repro.service.scheduler.FairMarketplace`).
    cache_entries, cache_bytes:
        Global LRU bounds on the shared judgment cache (``None`` =
        unbounded).
    state_dir:
        Durability root.  When set, each query persists
        ``<id>.spec.json`` at submission, checkpoints to ``<id>.ckpt``
        at round boundaries, and records ``<id>.result.json`` at the
        end; :meth:`recover` rebuilds unfinished queries from these.
    checkpoint_every:
        Checkpoint cadence in latency rounds (durable queries only).
    registry:
        Metrics registry for all ``service_*`` families (defaults to the
        process registry).
    """

    def __init__(
        self,
        max_workers: int = 4,
        capacity: int | None = None,
        admission: str = "queue",
        marketplace_slots: int = 4,
        quantum: int = 500,
        cache_entries: int | None = None,
        cache_bytes: int | None = None,
        state_dir: str | os.PathLike | None = None,
        checkpoint_every: int = 1,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.registry = registry if registry is not None else _process_registry()
        self.cache = SharedJudgmentCache(
            max_entries=cache_entries,
            max_bytes=cache_bytes,
            registry=self.registry,
        )
        self.marketplace = FairMarketplace(
            slots=marketplace_slots, quantum=quantum, registry=self.registry
        )
        self.admission = AdmissionController(
            capacity=capacity, policy=admission, registry=self.registry
        )
        self.state_dir = os.fspath(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            os.makedirs(self.state_dir, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self._lock = threading.Lock()
        self._handles: dict[str, QueryHandle] = {}
        self._admission_parked: list[QueryHandle] = []
        self._run_queue: "queue.Queue[object]" = queue.Queue()
        self._next_id = 1
        self._closed = False
        self._active_gauge = self.registry.gauge("service_active_queries")
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"crowd-topk-service-{n}",
                daemon=True,
            )
            for n in range(max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # the front door
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec) -> QueryHandle:
        """Admit ``spec`` and schedule it; returns its :class:`QueryHandle`.

        Raises :class:`~repro.errors.AdmissionError` over capacity under
        the ``"reject"`` policy; under ``"queue"`` the handle parks in
        ``"queued"`` state until capacity frees.  Durable services
        require dataset-named specs (an explicit-items spec cannot be
        revived in a fresh process).  A dataset-named spec must name a
        known dataset, ask for at most its item count and name only items
        it has: the library's ``Dataset.sample_items`` clamps a larger
        ``n_items`` to the whole dataset, which would answer another query
        than the one asked, and an item it lacks has no judgments to
        buy.  Each raises
        :class:`~repro.errors.ConfigError` before anything is queued.
        """
        if self._closed:
            raise ServiceError("service is closed")
        if spec.dataset is not None:
            try:
                dataset = load_dataset(spec.dataset)
            except DatasetError as exc:
                raise ConfigError(str(exc)) from None
            if spec.items is not None:
                spec.resolve_items(dataset)  # refuses ids the dataset lacks
            elif spec.n_items is not None and spec.n_items > len(dataset):
                raise ConfigError(
                    f"n_items ({spec.n_items}) exceeds the {len(dataset)} items "
                    f"of dataset {spec.dataset!r}"
                )
        if self.state_dir is not None and spec.dataset is None:
            raise ServiceError(
                "durable services need dataset-named specs "
                "(explicit items cannot be recovered)"
            )
        with self._lock:
            handle = QueryHandle(self, self._make_id(), spec)
            self._handles[handle.id] = handle
        self._persist_spec(handle)
        if self.admission.try_admit(handle.commitment):
            self._run_queue.put(handle)
        else:
            with self._lock:
                self._admission_parked.append(handle)
        return handle

    def handle(self, id: str) -> QueryHandle:
        """Look up a handle by id (raises ``KeyError`` for unknown ids)."""
        with self._lock:
            return self._handles[id]

    def handles(self) -> list[QueryHandle]:
        """Every handle this service has issued, in submission order."""
        with self._lock:
            return list(self._handles.values())

    def _make_id(self) -> str:
        id = f"q{self._next_id:04d}"
        self._next_id += 1
        return id

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def _cancel(self, handle: QueryHandle) -> bool:
        with self._lock:
            if handle.done:
                return False
            handle._cancel.set()
            parked = handle in self._admission_parked
            if parked:
                self._admission_parked.remove(handle)
            lane = handle._lane
        if lane is not None:
            lane.abort(QueryCancelledError(f"query {handle.id} cancelled"))
        if parked:
            self._finish(
                handle,
                "cancelled",
                error=QueryCancelledError(f"query {handle.id} cancelled"),
                committed=False,
            )
        return True

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._run_queue.get()
            if item is _STOP:
                return
            handle: QueryHandle = item  # type: ignore[assignment]
            try:
                self._run(handle)
            except BaseException as exc:  # defensive: workers must survive
                if not handle.done:
                    self._finish(handle, "failed", error=exc)

    def _run(self, handle: QueryHandle) -> None:
        spec = handle.spec
        if handle._cancel.is_set():
            self._finish(
                handle,
                "cancelled",
                error=QueryCancelledError(f"query {handle.id} cancelled"),
            )
            return
        handle._status = "running"
        self._active_gauge.inc()
        lane = self.marketplace.open_lane(spec.tenant)
        handle._lane = lane
        session: CrowdSession | None = None
        try:
            if handle.resume_from is not None:
                session = CrowdSession.restore(
                    handle.resume_from,
                    load_dataset(spec.dataset).oracle,
                    telemetry=self.registry,
                )
                self.registry.counter("service_recovered_queries_total").inc()
            else:
                session, items = session_for(spec, self.registry)
                # The cold path of the determinism contract: the tenant
                # namespace holds exactly what earlier queries stored, so
                # a first query sees an empty cache — standalone run.
                session.use_cache(self.cache.tenant(spec.tenant, spec.dataset))
            handle._session = session
            session.set_spend_gate(self._make_gate(handle, session))
            if self.state_dir is not None and spec.resumable:
                session.enable_checkpoints(
                    self._path(handle.id, "ckpt"), self.checkpoint_every
                )
            if handle.resume_from is not None:
                outcome = resume_session(session, spec)
            else:
                outcome = execute_spec(session, spec, items)
        except QueryCancelledError as exc:
            self._finish(handle, "cancelled", error=exc)
        except SLAExceededError as exc:
            self.registry.counter(
                "service_sla_breaches_total", kind="latency"
            ).inc()
            self._finish(handle, "failed", error=exc)
        except BudgetExhaustedError as exc:
            self.registry.counter(
                "service_sla_breaches_total", kind="cost"
            ).inc()
            self._finish(handle, "failed", error=exc)
        except BaseException as exc:
            self._finish(handle, "failed", error=exc)
        else:
            handle.outcome = outcome
            self._finish(handle, "done")
        finally:
            lane.close()
            if session is not None:
                session.set_spend_gate(None)

    def _make_gate(self, handle: QueryHandle, session: CrowdSession):
        spec = handle.spec
        lane = handle._lane

        def gate(microtasks: int) -> None:
            if handle._cancel.is_set():
                raise QueryCancelledError(f"query {handle.id} cancelled")
            if (
                spec.latency_sla is not None
                and session.latency.rounds >= spec.latency_sla
            ):
                raise SLAExceededError(
                    f"query {handle.id} spent {session.latency.rounds} rounds; "
                    f"latency SLA is {spec.latency_sla}"
                )
            lane.gate(microtasks)

        return gate

    def _finish(
        self,
        handle: QueryHandle,
        status: str,
        error: BaseException | None = None,
        committed: bool = True,
    ) -> None:
        if status == "running" or status not in STATUSES:
            raise ValueError(f"not a terminal status: {status!r}")
        was_running = handle._status == "running"
        handle._status = status
        handle.error = error
        self._persist_result(handle)
        handle._done.set()
        if was_running:
            self._active_gauge.dec()
        self.registry.counter(
            "service_queries_total", tenant=handle.spec.tenant, status=status
        ).inc()
        if committed:
            self.admission.release(handle.commitment)
        self._admit_parked()

    def _admit_parked(self) -> None:
        admitted: list[QueryHandle] = []
        with self._lock:
            while self._admission_parked:
                head = self._admission_parked[0]
                if not self.admission.readmit(head.commitment):
                    break
                admitted.append(self._admission_parked.pop(0))
        for handle in admitted:
            self._run_queue.put(handle)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _path(self, id: str, kind: str) -> str:
        assert self.state_dir is not None
        return os.path.join(self.state_dir, f"{id}.{kind}")

    def _persist_spec(self, handle: QueryHandle) -> None:
        if self.state_dir is None:
            return
        import json

        document = {"id": handle.id, **handle.spec.to_document()}
        path = self._path(handle.id, "spec.json")
        temp = f"{path}.tmp"
        with open(temp, "w", encoding="utf-8") as sink:
            json.dump(document, sink, indent=2, sort_keys=True)
            sink.write("\n")
        os.replace(temp, path)

    def _persist_result(self, handle: QueryHandle) -> None:
        if self.state_dir is None:
            return
        import json

        document: dict = {"id": handle.id, "status": handle._status}
        if handle.outcome is not None:
            document["outcome"] = {
                "method": handle.outcome.method,
                "topk": list(handle.outcome.topk),
                "cost": handle.outcome.cost,
                "rounds": handle.outcome.rounds,
            }
        if handle.error is not None:
            document["error"] = (
                f"{type(handle.error).__name__}: {handle.error}"
            )
        path = self._path(handle.id, "result.json")
        temp = f"{path}.tmp"
        with open(temp, "w", encoding="utf-8") as sink:
            json.dump(document, sink, indent=2, sort_keys=True)
            sink.write("\n")
        os.replace(temp, path)

    def recover(self) -> list[QueryHandle]:
        """Re-submit every unfinished query found in ``state_dir``.

        A query is unfinished when its spec document has no result
        document.  Queries with a checkpoint resume from it (``spr`` /
        ``bdp``) on their *private* restored cache — resume determinism
        outranks cache sharing — and checkpoint-less or non-resumable
        queries restart from scratch, which is deterministic anyway
        (same spec, same seed).  Returns the revived handles.
        """
        if self.state_dir is None:
            raise ServiceError("recover() needs a state_dir")
        import json

        revived: list[QueryHandle] = []
        for entry in sorted(os.listdir(self.state_dir)):
            if not entry.endswith(".spec.json"):
                continue
            id = entry[: -len(".spec.json")]
            if os.path.exists(self._path(id, "result.json")):
                continue
            with open(self._path(id, "spec.json"), encoding="utf-8") as src:
                document = json.load(src)
            spec = spec_from_document(document)
            with self._lock:
                handle = QueryHandle(self, id, spec)
                self._handles[id] = handle
                numeric = int(id[1:]) if id[1:].isdigit() else 0
                self._next_id = max(self._next_id, numeric + 1)
            checkpoint = self._path(id, "ckpt")
            if spec.resumable and os.path.exists(checkpoint):
                handle.resume_from = checkpoint
            revived.append(handle)
            if self.admission.try_admit(handle.commitment):
                self._run_queue.put(handle)
            else:
                with self._lock:
                    self._admission_parked.append(handle)
        return revived

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def queries_document(self) -> dict:
        """The tenant-aware ``/queries`` payload (rows + service totals)."""
        handles = self.handles()
        statuses = [handle.status() for handle in handles]
        return {
            "queries": [handle.to_document() for handle in handles],
            "service": {
                "active": statuses.count("running"),
                "queued": statuses.count("queued"),
                "finished": sum(
                    status in ("done", "failed", "cancelled")
                    for status in statuses
                ),
                "capacity": self.admission.capacity,
                "committed_budget": self.admission.committed,
                "cache": self.cache.stats(),
                "marketplace": self.marketplace.snapshot(),
            },
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting queries and shut the workers down.

        With ``wait`` (the default) already-admitted queries drain
        first; otherwise they are cancelled.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if not wait:
            for handle in self.handles():
                if not handle.done:
                    handle.cancel()
        for _ in self._workers:
            self._run_queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout=timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _process_registry() -> MetricsRegistry:
    from ..telemetry import get_registry

    return get_registry()
