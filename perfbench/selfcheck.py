"""Self-check of the benchmark: steadiness, layer coverage, failing checks.

Usage (from the root of a checkout; takes several minutes)::

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

For every workload it runs ``run.py`` twice untraced with the same seed
and requires ``tmc_per_query``, ``rounds_per_query``, ``ndcg_at_k`` and,
for ``service_http``, the first pass's cache hits and misses to match
exactly; then once traced, requiring the layers' self seconds to sum to
the query wall within 5%.  Each ``--corrupt`` kind must make ``run.py``
exit non-zero.  The metric names must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from common import CORRUPTIONS, ROOT
from run import END_TO_END, WORKLOADS
from tracer import PER_LAYER

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, trace: int, report: Path | None = None,
        corruption: str | None = None) -> tuple[int, dict | None]:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace", str(trace)]
    if report is not None:
        command += ["--report", str(report)]
    if corruption is not None:
        command += ["--corrupt", corruption]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
        if not ok:
            failures.append(message)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in declared["end_to_end"]] == list(END_TO_END),
           "BENCHMARK.json end_to_end names match run.py")
    expect([m["name"] for m in declared["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json per_layer names match tracer.py")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selfcheck-") as tmp:
        for workload in args.workload or WORKLOADS:
            counts = []
            for attempt in (1, 2):
                report = Path(tmp) / f"{workload}-{attempt}.json"
                code, _ = run(workload, args.seed, 0, report)
                expect(code == 0, f"{workload} untraced run {attempt} passes its checks")
                counts.append(json.loads(report.read_text())["counts"] if code == 0 else None)
            expect(counts[0] is not None and counts[0] == counts[1],
                   f"{workload} counts repeat exactly: {counts[0]}")
            code, result = run(workload, args.seed, 1)
            ratio = result["metrics"]["trace.layers_sum_ratio"]["value"] if result else 0.0
            expect(code == 0 and abs(ratio - 1.0) <= 0.05,
                   f"{workload} layer self seconds sum to {ratio:.4f} of the query wall")
            if result:
                overhead = result["metrics"]["trace.overhead_ratio"]["value"]
                print(f"     {workload} tracing overhead {overhead:+.1%}")

        for workload in ("spr_imdb", "service_http"):
            if args.workload and workload not in args.workload:
                continue
            for corruption in CORRUPTIONS:
                code, result = run(workload, args.seed, 0, corruption=corruption)
                expect(code != 0 and result is not None and not result["correct"]
                       and result["failed"] >= 1,
                       f"{workload} --corrupt {corruption} fails the command (exit {code})")
    print("selfcheck:", "PASS" if not failures else f"FAIL ({len(failures)})")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
