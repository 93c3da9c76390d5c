"""crowd-topk end-to-end benchmark: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spr_imdb --seed 1 --seconds 15 --trace 0

Workloads: ``spr_imdb`` and ``bdp_jester`` (library door, see
``library.py``) and ``service_http`` (``crowd-topk serve`` over HTTP, see
``http_service.py``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs one pass of the queries untraced and then traced, and
reports per-layer metrics and the tracing overhead instead.  NOTES.md
defines every metric.

Every answer is checked.  The command prints each metric with its unit,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; it exits non-zero if any answer
was wrong.  ``--corrupt KIND`` falsifies the first answer, to show that
the checks catch it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

from common import CORRUPTIONS, SRC, WORK, BenchError, log

#: End-to-end metrics of an untraced run, with their units.  Latency and
#: throughput are normalized to the host's speed (see common.reference_s);
#: the raw figures are printed too.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_norm_ms": "ms",
    "latency_p90_norm_ms": "ms",
    "queries_per_s_norm": "1/s",
    "tmc_per_query": "microtasks",
    "rounds_per_query": "rounds",
    "ndcg_at_k": "ratio",
    "peak_rss_mb": "MiB",
}

#: Printed beside them: the same figures as measured on the loaded host.
RAW = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "queries_per_s": "1/s"}

WORKLOADS = ("spr_imdb", "bdp_jester", "service_http")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=CORRUPTIONS, default=None,
                        help="falsify the first answer (checks must fail)")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="also write exact counts and layer totals as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no program to benchmark: {SRC / 'repro'} is missing")
        return 2
    # Children inherit an ignored SIGINT; a handler here lets serve stop on it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 - compile and cache before set-up is timed

    if args.workload == "service_http":
        import http_service as workload
    else:
        import library as workload
    try:
        metrics, queries, report = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.corrupt
        )
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        from tracer import PER_LAYER as units
    else:
        units = END_TO_END
    correct = queries.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        for name, unit in RAW.items():
            print(f"  {name:<40} {metrics[name]:>14.6g} {unit} (raw, not normalized)")
    print(f"  {'failed_ratio':<40} {queries.failed / queries.attempted:>14.6g} "
          f"ratio ({queries.failed} of {queries.attempted} queries)")
    for problem in queries.problems:
        print(f"  wrong: {problem}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as sink:
            json.dump(report, sink, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": queries.attempted,
        "failed": queries.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
