"""Command-line interface.

Three subcommands cover the common workflows without writing Python:

* ``crowd-topk datasets`` — list the built-in synthetic datasets.
* ``crowd-topk query`` — answer one top-k query with any method and print
  the result, its cost, and its quality against the ground truth.
* ``crowd-topk explain`` — answer a recorded query and print per-phase and
  per-item cost attribution plus each returned item's comparison trail.
* ``crowd-topk experiment`` — regenerate one of the paper's tables or
  figures at a chosen run count.
* ``crowd-topk validate`` — run the statistical validation suites
  (empirical guarantee checking and runtime invariants).
* ``crowd-topk serve`` — run the multi-tenant query service behind a
  live observatory; accepts queries over HTTP.
* ``crowd-topk submit`` — send a :class:`~repro.service.QuerySpec` to a
  running service and (optionally) wait for the answer.

Examples::

    crowd-topk query --dataset jester --method spr -k 10 --seed 7
    crowd-topk query --dataset imdb --method heapsort -k 5 --n-items 200
    crowd-topk query --dataset imdb --method bdp -k 5 --n-items 30
    crowd-topk query --method spr --telemetry /tmp/query.jsonl
    crowd-topk query --method spr --checkpoint /tmp/q.ckpt
    crowd-topk query --method spr --checkpoint /tmp/q.ckpt --resume
    crowd-topk query --method spr --serve 127.0.0.1:9188
    crowd-topk query --method spr --flight-recorder /tmp/flight.json
    crowd-topk serve 127.0.0.1:9188 --workers 4 --capacity 500000
    crowd-topk serve :0 --state-dir /tmp/svc --recover
    crowd-topk submit --server http://127.0.0.1:9188 --method spr -k 5 \
        --dataset synthetic --n-items 20 --tenant acme --wait
    crowd-topk explain --dataset imdb -k 5 --n-items 60 --json
    crowd-topk -v experiment table7 --runs 3
    crowd-topk experiment fig8 --dataset book --runs 2
    crowd-topk experiment fig9 --runs 10 --jobs 4
    crowd-topk validate --suite guarantees --jobs 4 --report report.json

``--jobs N`` fans the independent runs of an experiment out over N worker
processes (0 = one per CPU); results are bit-for-bit identical to the
serial run (see docs/performance.md).

``--telemetry PATH`` streams phase spans to a JSONL file, appends the full
metrics snapshot, and prints a summary table; ``--serve HOST:PORT`` keeps
a live HTTP observatory (``/metrics``, ``/healthz``, ``/queries``,
``/events``) up for the duration of the query; ``--flight-recorder PATH``
dumps the bounded event ring to JSON on completion or crash; ``-v`` /
``-vv`` raise the ``repro`` logger to INFO / DEBUG (see
docs/observability.md).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Sequence

from . import __version__
from .algorithms import ALGORITHMS, RESUMERS
from .crowd.session import CrowdSession
from .datasets import DATASET_NAMES, load_dataset
from .errors import CrowdTopkError
from .experiments import (
    ExperimentParams,
    use_jobs,
    run_accuracy,
    run_appendix_d,
    run_non_confidence,
    run_peopleage,
    run_robustness,
    run_scalability,
    run_spr_vs_bdp,
    run_stein_vs_student,
    run_summary,
    run_sweet_spot,
    run_table3,
    run_table4,
    run_table7,
)
from .metrics import ndcg_at_k, top_k_precision
from .planner import plan_query
from .reports import explain_query
from .service import QuerySpec, execute_spec, session_for
from .telemetry import (
    FlightRecorder,
    JsonlSink,
    MetricsRegistry,
    ObservatoryServer,
    get_query_board,
    parse_address,
    use_registry,
)
from .validation import run_guarantee_suite, run_invariant_suite
from .validation.guarantees import DEFAULT_ALPHAS, DEFAULT_REPLICATIONS

#: Suites in the order ``--suite all`` runs them.
VALIDATION_SUITES = ("guarantees", "invariants")

__all__ = ["main", "build_parser"]


def _configure_logging(verbosity: int) -> None:
    """Point the ``repro`` logger at stderr at the requested level."""
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="crowd-topk",
        description="Crowdsourced top-k queries by confidence-aware "
        "pairwise judgments (SIGMOD'17 reproduction).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log decision points to stderr (-v: INFO, -vv: DEBUG)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the built-in datasets")

    query = commands.add_parser("query", help="answer one top-k query")
    query.add_argument("--dataset", choices=DATASET_NAMES, default="jester")
    query.add_argument(
        "--method", choices=sorted(ALGORITHMS), default="spr"
    )
    query.add_argument("-k", type=int, default=10, help="result size")
    query.add_argument(
        "--n-items", type=int, default=None,
        help="deterministic first-n item subset (default: all)",
    )
    query.add_argument("--confidence", type=float, default=0.98)
    query.add_argument("--budget", type=int, default=1000)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write phase spans and a metrics snapshot to a JSONL file",
    )
    query.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="atomically checkpoint the query to PATH at round boundaries "
        f"({' and '.join(RESUMERS)}); pair with --resume to continue a "
        "killed run",
    )
    query.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="ROUNDS",
        help="latency rounds between checkpoints (default 1)",
    )
    query.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint instead of starting fresh; the "
        "resumed query reaches the identical top-k at identical total cost",
    )
    query.add_argument(
        "--serve", metavar="HOST:PORT", default=None,
        help="serve /metrics, /healthz, /queries and /events over HTTP "
        "while the query runs (PORT alone binds 127.0.0.1; port 0 picks "
        "an ephemeral port and prints it)",
    )
    query.add_argument(
        "--flight-recorder", metavar="PATH", default=None,
        help="record structured events in a bounded ring buffer; dump the "
        "tail to PATH as JSON on completion or crash",
    )

    explain = commands.add_parser(
        "explain",
        help="answer one top-k query and explain where every microtask went",
        description="Run a recorded query and print per-phase and per-item "
        "cost attribution plus the comparison trail supporting each "
        "returned item.  Per-item costs plus the unattributed bucket "
        "always sum exactly to the session's total monetary cost.",
    )
    explain.add_argument("--dataset", choices=DATASET_NAMES, default="jester")
    explain.add_argument("--method", choices=sorted(ALGORITHMS), default="spr")
    explain.add_argument("-k", type=int, default=10, help="result size")
    explain.add_argument(
        "--n-items", type=int, default=None,
        help="deterministic first-n item subset (default: all)",
    )
    explain.add_argument("--confidence", type=float, default=0.98)
    explain.add_argument("--budget", type=int, default=1000)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of the table",
    )
    explain.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the JSON report to PATH",
    )

    plan = commands.add_parser(
        "plan", help="recommend a configuration for a deployment"
    )
    plan.add_argument("--n-items", type=int, required=True)
    plan.add_argument("-k", type=int, required=True)
    plan.add_argument("--target-precision", type=float, default=0.6)
    plan.add_argument("--dollars", type=float, default=None,
                      help="spending cap in US$")
    plan.add_argument("--score-spread", type=float, default=1.0)
    plan.add_argument("--noise", type=float, default=1.0)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "name",
        choices=sorted(_EXPERIMENTS),
        help="which table/figure to regenerate",
    )
    experiment.add_argument("--dataset", default=None, help="dataset override")
    experiment.add_argument("--runs", type=int, default=3, help="runs to average")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan runs out over N worker processes (0 = one per CPU, "
        "default 1 = serial); results are bit-for-bit identical",
    )

    validate = commands.add_parser(
        "validate",
        help="run the statistical validation suites",
        description="Measure the library against the paper's statistical "
        "promises: empirical error rates vs the declared alpha "
        "(guarantees) and accounting identities on live sessions "
        "(invariants).  Exit code 0 = all requested suites pass.",
    )
    validate.add_argument(
        "--suite", choices=VALIDATION_SUITES + ("all",), default="all",
        help="which suite to run (default: all)",
    )
    validate.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan guarantee replications out over N worker processes "
        "(0 = one per CPU); results are bit-for-bit identical",
    )
    validate.add_argument(
        "--replications", type=int, default=DEFAULT_REPLICATIONS,
        help="replications per guarantee check "
        f"(default {DEFAULT_REPLICATIONS})",
    )
    validate.add_argument(
        "--alpha", type=float, action="append", default=None, metavar="A",
        help="error-probability level(s) to check, repeatable "
        f"(default {list(DEFAULT_ALPHAS)})",
    )
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the combined report as JSON",
    )
    validate.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write validation spans and a metrics snapshot to a JSONL file",
    )

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant query service over HTTP",
        description="Start a long-lived QueryService behind a live "
        "observatory.  GET /metrics, /healthz, /queries, /events plus "
        "POST /submit, POST /cancel?id=..., GET /result?id=... stay up "
        "until interrupted.",
    )
    serve.add_argument(
        "address", nargs="?", default="127.0.0.1:0",
        help="bind address HOST:PORT (default 127.0.0.1:0 — an ephemeral "
        "port, printed on startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="queries running simultaneously (default 4)",
    )
    serve.add_argument(
        "--capacity", type=int, default=None, metavar="MICROTASKS",
        help="admission-control bound on the summed cost SLAs of "
        "unfinished queries (default: unbounded)",
    )
    serve.add_argument(
        "--admission", choices=("queue", "reject"), default="queue",
        help="over-capacity policy: park the query or reject the "
        "submission (default queue)",
    )
    serve.add_argument(
        "--slots", type=int, default=4, metavar="N",
        help="marketplace rounds in flight at once (default 4)",
    )
    serve.add_argument(
        "--quantum", type=int, default=500, metavar="MICROTASKS",
        help="deficit-round-robin quantum per tenant visit (default 500)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=None, metavar="N",
        help="global bound on cached pairs (default: unbounded)",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=None, metavar="BYTES",
        help="global bound on cached judgment bytes (default: unbounded)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="persist specs, checkpoints and results under DIR so killed "
        "queries can be recovered",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="resume unfinished queries found in --state-dir on startup",
    )

    submit = commands.add_parser(
        "submit",
        help="submit a query to a running service",
        description="POST a QuerySpec document to a crowd-topk serve "
        "instance.  Prints the assigned query id; with --wait, waits on "
        "/result and prints the outcome.",
    )
    submit.add_argument(
        "--server", metavar="URL", default="http://127.0.0.1:9188",
        help="service base URL (default http://127.0.0.1:9188)",
    )
    submit.add_argument(
        "--spec", metavar="PATH", default=None,
        help="JSON QuerySpec document; explicit flags below override its "
        "fields",
    )
    submit.add_argument("--method", choices=sorted(ALGORITHMS), default=None)
    submit.add_argument("-k", type=int, default=None, help="result size")
    submit.add_argument("--dataset", choices=DATASET_NAMES, default=None)
    submit.add_argument(
        "--n-items", type=int, default=None,
        help="deterministic first-n item subset (default: all)",
    )
    submit.add_argument("--confidence", type=float, default=None)
    submit.add_argument("--budget", type=int, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--tenant", default=None, help="owning tenant")
    submit.add_argument(
        "--cost-sla", type=int, default=None, metavar="MICROTASKS",
        help="hard microtask ceiling (also the admission commitment)",
    )
    submit.add_argument(
        "--latency-sla", type=int, default=None, metavar="ROUNDS",
        help="hard latency-round ceiling",
    )
    submit.add_argument("--name", default=None, help="display name")
    submit.add_argument(
        "--wait", action="store_true",
        help="wait on /result until the query finishes and print the outcome",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up waiting after SECONDS (default 600)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print raw JSON responses instead of the summary lines",
    )
    return parser


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name in DATASET_NAMES:
        dataset = load_dataset(name)
        print(f"{name:10s} {len(dataset):5d} items  {dataset.description}")
    return 0


def _spec_from_args(args: argparse.Namespace) -> QuerySpec:
    """The :class:`QuerySpec` a ``query`` or ``explain`` command line asks.

    The one-shot commands are thin adapters over the same QuerySpec
    dispatch the service uses, so the doors cannot drift apart.
    """
    params = ExperimentParams(
        dataset=args.dataset,
        n_items=args.n_items,
        k=args.k,
        confidence=args.confidence,
        budget=args.budget,
        n_runs=1,
        seed=args.seed,
    )
    return QuerySpec(
        method=args.method,
        k=args.k,
        dataset=args.dataset,
        n_items=args.n_items,
        comparison=params.comparison_config(),
        seed=args.seed,
    )


def _cmd_query(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.resume and args.method not in RESUMERS:
        print("error: --resume supports only --method "
              + " or ".join(RESUMERS), file=sys.stderr)
        return 2
    serve_address = None
    if args.serve:
        try:
            serve_address = parse_address(args.serve)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    dataset = load_dataset(args.dataset)
    working = dataset.sample_items(args.n_items)
    k = args.k
    sink = JsonlSink(args.telemetry) if args.telemetry else None
    if sink is not None:
        try:
            sink.open()  # fail before the query, not after
        except OSError as exc:
            print(f"error: cannot write telemetry to {sink.path}: {exc}",
                  file=sys.stderr)
            return 1

    # One fresh registry per query: the snapshot then reconciles exactly
    # with this session's cost ledger.
    with use_registry(MetricsRegistry()) as registry:
        if sink is not None:
            registry.add_listener(sink.write_event)
        recorder = None
        if args.flight_recorder or serve_address is not None:
            recorder = FlightRecorder()
            recorder.attach(registry=registry)
        observatory = None
        try:
            if serve_address is not None:
                try:
                    observatory = ObservatoryServer(
                        registry=registry,
                        queries=get_query_board(),
                        recorder=recorder,
                        host=serve_address[0],
                        port=serve_address[1],
                    ).start()
                except OSError as exc:
                    print(f"error: cannot serve on {args.serve}: {exc}",
                          file=sys.stderr)
                    return 1
                print(f"observatory serving at {observatory.url}",
                      file=sys.stderr)
            if args.resume:
                try:
                    session = CrowdSession.restore(args.checkpoint, dataset.oracle)
                except (OSError, ValueError, CrowdTopkError) as exc:
                    print(f"error: cannot resume from {args.checkpoint}: {exc}",
                          file=sys.stderr)
                    return 1
                query_state = (
                    (session.restored_state or {}).get("query", {})
                    .get(args.method)
                )
                if query_state is None:
                    print(
                        f"error: {args.checkpoint} holds no resumable "
                        f"{args.method} query",
                        file=sys.stderr,
                    )
                    return 1
                # The original working set and k come from the checkpoint, so a
                # resumed query answers exactly the question the killed one
                # asked.
                working = dataset.items.restrict(query_state["items"])
                k = int(query_state["k"])
                session.enable_checkpoints(args.checkpoint, args.checkpoint_every)

                def run() -> object:
                    return RESUMERS[args.method](session)
            else:
                spec = _spec_from_args(args)
                session, items = session_for(spec, registry)
                if args.checkpoint:
                    session.enable_checkpoints(
                        args.checkpoint, args.checkpoint_every
                    )

                def run() -> object:
                    return execute_spec(session, spec, items)

            if recorder is not None:
                recorder.attach(session=session)
            if observatory is not None:
                observatory.queries.register(
                    f"{args.dataset}:{args.method}:k={k}", session
                )
            if args.flight_recorder:
                with recorder.guard(args.flight_recorder):
                    outcome = run()
                recorder.dump(args.flight_recorder, reason="completed")
                print(f"flight recorder written to {args.flight_recorder}",
                      file=sys.stderr)
            else:
                outcome = run()
        finally:
            if observatory is not None:
                observatory.stop()
        if sink is not None:
            sink.write_snapshot(registry)
            sink.close()

    print(f"top-{k} by {args.method} on {args.dataset} "
          f"(N={len(working)}, 1-a={session.config.confidence}, "
          f"B={session.config.budget}):")
    for position, item in enumerate(outcome.topk, start=1):
        print(f"  {position:3d}. {working.label_of(item)} "
              f"(true rank {working.rank_of(item)})")
    print(f"TMC: {outcome.cost:,} microtasks | latency: {outcome.rounds:,} rounds")
    print(f"NDCG@{k}: {ndcg_at_k(working, outcome.topk, k):.3f} | "
          f"precision: {top_k_precision(working, outcome.topk, k):.2f}")
    if sink is not None:
        print()
        print(registry.summary_table())
        print(f"telemetry written to {sink.path}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    with use_registry(MetricsRegistry()) as registry:
        session, items = session_for(spec, registry)
        with FlightRecorder(capacity=None).attach(session=session) as recorder:
            outcome = execute_spec(session, spec, items)
        report = explain_query(
            session, recorder, outcome.topk, method=args.method, k=args.k
        )
        microtasks = int(registry.counter_total("crowd_microtasks_total"))
    print(report.to_json() if args.json else report.to_text())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"report written to {args.output}", file=sys.stderr)
    if not report.reconciles(microtasks):
        print("warning: explain report does not reconcile with the ledgers",
              file=sys.stderr)
        return 1
    return 0


# experiment name -> callable(args) -> list of reports
def _exp_table3(args):
    return [run_table3(n_runs=args.runs, seed=args.seed)]


def _exp_table4(args):
    params = ExperimentParams(
        dataset=args.dataset or "imdb", n_runs=args.runs, seed=args.seed
    )
    return [run_table4(params)]


def _exp_table7(args):
    return [run_table7(n_runs=args.runs, seed=args.seed)]


def _sweep(vary):
    def runner(args):
        params = ExperimentParams(
            dataset=args.dataset or "imdb", n_runs=args.runs, seed=args.seed
        )
        return list(run_scalability(vary, params))

    return runner


def _exp_fig12(args):
    return list(run_summary(n_runs=args.runs, seed=args.seed))


def _exp_fig13(args):
    params = ExperimentParams(
        dataset=args.dataset or "imdb", n_runs=args.runs, seed=args.seed
    )
    return [run_accuracy(vary, params) for vary in ("k", "n", "budget", "confidence")]


def _exp_fig14(args):
    return [run_non_confidence(n_runs=args.runs, seed=args.seed)]


def _exp_fig15(_args):
    return [run_appendix_d()]


def _exp_fig16(args):
    return [run_sweet_spot(n_runs=args.runs, seed=args.seed)]


def _exp_fig17(args):
    return [
        run_stein_vs_student(
            dataset=args.dataset or "imdb", n_runs=args.runs, seed=args.seed
        )
    ]


def _exp_peopleage(args):
    return [run_peopleage(n_runs=args.runs, seed=args.seed)]


def _exp_robustness(args):
    return [run_robustness(n_runs=args.runs, seed=args.seed)]


def _exp_spr_vs_bdp(args):
    datasets = (args.dataset,) if args.dataset else ("imdb", "book")
    return [run_spr_vs_bdp(datasets=datasets, n_runs=args.runs, seed=args.seed)]


_EXPERIMENTS = {
    "table3": _exp_table3,
    "table4": _exp_table4,
    "table7": _exp_table7,
    "fig8": _sweep("k"),
    "fig9": _sweep("n"),
    "fig10": _sweep("confidence"),
    "fig11": _sweep("budget"),
    "fig12": _exp_fig12,
    "fig13": _exp_fig13,
    "fig14": _exp_fig14,
    "fig15": _exp_fig15,
    "fig16": _exp_fig16,
    "fig17": _exp_fig17,
    "peopleage": _exp_peopleage,
    "robustness": _exp_robustness,
    "spr_vs_bdp": _exp_spr_vs_bdp,
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Install the requested parallelism ambiently: every harness entry
    # point resolves n_jobs=None against it, so --jobs reaches all of
    # them without threading the flag through each signature.
    with use_jobs(args.jobs):
        for report in _EXPERIMENTS[args.name](args):
            print(report.to_text())
            print()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    suites = VALIDATION_SUITES if args.suite == "all" else (args.suite,)
    alphas = tuple(args.alpha) if args.alpha else DEFAULT_ALPHAS
    sink = JsonlSink(args.telemetry) if args.telemetry else None
    if sink is not None:
        try:
            sink.open()  # fail before the suites, not after
        except OSError as exc:
            print(f"error: cannot write telemetry to {sink.path}: {exc}",
                  file=sys.stderr)
            return 1

    reports: dict[str, object] = {}
    with use_registry(MetricsRegistry()) as registry:
        if sink is not None:
            registry.add_listener(sink.write_event)
        with use_jobs(args.jobs):
            for suite in suites:
                if suite == "guarantees":
                    report = run_guarantee_suite(
                        alphas=alphas,
                        replications=args.replications,
                        seed=args.seed,
                    )
                else:
                    report = run_invariant_suite(seed=args.seed)
                reports[suite] = report
                print(report.to_text())
                print()
        if sink is not None:
            sink.write_snapshot(registry)
            sink.close()

    passed = all(report.passed for report in reports.values())
    if args.report:
        payload = {
            "passed": passed,
            "suites": {name: report.to_dict() for name, report in reports.items()},
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report}")
    if sink is not None:
        print(f"telemetry written to {sink.path}")
    print(f"validate: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .service import QueryService

    try:
        address = parse_address(args.address)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.recover and not args.state_dir:
        print("error: --recover requires --state-dir DIR", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    with use_registry(registry):
        recorder = FlightRecorder()
        recorder.attach(registry=registry)
        service = QueryService(
            max_workers=args.workers,
            capacity=args.capacity,
            admission=args.admission,
            marketplace_slots=args.slots,
            quantum=args.quantum,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            state_dir=args.state_dir,
            registry=registry,
        )
        observatory = None
        try:
            if args.recover:
                revived = service.recover()
                print(
                    f"recovered {len(revived)} unfinished "
                    f"quer{'y' if len(revived) == 1 else 'ies'} "
                    f"from {args.state_dir}",
                    file=sys.stderr,
                )
            try:
                observatory = ObservatoryServer(
                    registry=registry,
                    recorder=recorder,
                    service=service,
                    host=address[0],
                    port=address[1],
                ).start()
            except OSError as exc:
                print(f"error: cannot serve on {args.address}: {exc}",
                      file=sys.stderr)
                return 1
            print(f"observatory serving at {observatory.url}", file=sys.stderr)
            print(
                f"query service ready: workers={args.workers} "
                f"capacity={args.capacity if args.capacity is not None else 'unbounded'} "
                f"admission={args.admission}",
                file=sys.stderr,
            )
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                print("shutting down", file=sys.stderr)
        finally:
            if observatory is not None:
                observatory.stop()
            service.close(wait=False)
    return 0


def _service_request(
    method: str, url: str, payload: dict | None = None
) -> tuple[int, dict]:
    """One JSON request against a running service; (status, document)."""
    import urllib.request

    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    import urllib.error

    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", errors="replace")
        try:
            return exc.code, json.loads(body)
        except ValueError:
            return exc.code, {"error": body.strip() or exc.reason}


def _cmd_submit(args: argparse.Namespace) -> int:
    import time
    import urllib.error

    document: dict = {}
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read spec {args.spec}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(document, dict):
            print(f"error: {args.spec} must hold a JSON object", file=sys.stderr)
            return 2
    overrides = {
        "method": args.method,
        "k": args.k,
        "dataset": args.dataset,
        "n_items": args.n_items,
        "seed": args.seed,
        "tenant": args.tenant,
        "cost_sla": args.cost_sla,
        "latency_sla": args.latency_sla,
        "name": args.name,
    }
    document.update(
        {field: value for field, value in overrides.items() if value is not None}
    )
    comparison = dict(document.get("comparison") or {})
    if args.confidence is not None:
        comparison["confidence"] = args.confidence
    if args.budget is not None:
        comparison["budget"] = args.budget
    if comparison:
        document["comparison"] = comparison

    server = args.server.rstrip("/")
    try:
        status, response = _service_request("POST", f"{server}/submit", document)
    except urllib.error.URLError as exc:
        print(f"error: cannot reach {server}: {exc.reason}", file=sys.stderr)
        return 1
    if status >= 400:
        print(f"error: submit rejected ({status}): "
              f"{response.get('error', response)}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    else:
        print(f"submitted {response['id']}: {response['query']} "
              f"(tenant {response['tenant']}, {response['status']})")
    if not args.wait:
        return 0

    id = response["id"]
    deadline = time.monotonic() + args.timeout
    # The server holds each /result open until the query finishes or its
    # own wait runs out (202), so asking again at once paces the loop.
    while True:
        try:
            status, result = _service_request("GET", f"{server}/result?id={id}")
        except urllib.error.URLError as exc:
            print(f"error: lost {server}: {exc.reason}", file=sys.stderr)
            return 1
        if status != 202:
            break
        if time.monotonic() > deadline:
            print(f"error: query {id} still {result.get('status')!r} after "
                  f"{args.timeout}s", file=sys.stderr)
            return 1
    if status != 200:
        print(f"error: result of {id} refused ({status}): "
              f"{result.get('error', result)}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0 if result.get("status") == "done" else 1
    if result.get("status") == "done":
        print(f"{id} done: top-{result['k']} = {result['topk']}")
        print(f"TMC: {result['cost']:,} microtasks | "
              f"latency: {result['rounds']:,} rounds")
        return 0
    print(f"{id} {result.get('status')}: {result.get('error', 'no outcome')}",
          file=sys.stderr)
    return 1


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_query(
        args.n_items,
        args.k,
        target_precision=args.target_precision,
        dollar_budget=args.dollars,
        score_spread=args.score_spread,
        noise_sigma=args.noise,
    )
    print(plan.summary())
    print(plan.rationale)
    return 0 if plan.feasible else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
