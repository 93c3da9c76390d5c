#!/usr/bin/env python
"""CI smoke check for the multi-tenant query service.

Launches ``crowd-topk serve 127.0.0.1:0`` as a real subprocess, reads
the ephemeral URL it announces on stderr, submits three concurrent
queries from two tenants through ``crowd-topk submit`` subprocesses
(the full CLI → HTTP → service → worker path), scrapes ``/queries``
while they run, and waits for every submission.  Passes only when

* the serve CLI announces both the observatory URL and service
  readiness,
* all three submits exit 0 and print a ``done`` line with a top-k,
* every query completes within its cost SLA (the submit path re-raises
  SLA breaches as non-zero exits, so exit 0 *is* the SLA check),
* a ``/queries`` scrape listed the service block with both tenants,
* no scraped ``/queries`` row carried an ``error`` key,
* a ``/metrics`` scrape exposed ``service_queries_total``, and
* ``submit --wait`` waited on ``/result`` instead of polling it: the
  final scrape counts at most one ``/result`` request per submit for
  every ``RESULT_WAIT_S`` of the smoke's wall time, plus one.

Run from the repository root: ``python scripts/smoke_service.py``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.telemetry.server import RESULT_WAIT_S  # noqa: E402

URL_LINE = re.compile(r"observatory serving at (http://\S+)")
RESULT_REQUESTS = re.compile(
    r'^observatory_requests_total\{route="/result"\} (\S+)$', re.MULTILINE
)
READY_LINE = re.compile(r"query service ready")
STARTUP_DEADLINE_S = 60.0
SUBMIT_TIMEOUT_S = 180

#: Three queries, two tenants, all with generous-but-real cost SLAs.
SUBMISSIONS = [
    ("acme", "3", "0"),
    ("acme", "4", "1"),
    ("globex", "3", "2"),
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # The smoke pins exact completion; ambient fault injection belongs to
    # the dedicated fault-injection CI leg.
    env.pop("CROWD_TOPK_FAULT_RATE", None)
    return env


def _scrape(url: str) -> dict | str:
    with urllib.request.urlopen(url, timeout=5) as response:
        body = response.read().decode("utf-8")
    if "json" in response.headers.get("Content-Type", ""):
        return json.loads(body)
    return body


def main() -> int:
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "127.0.0.1:0",
         "--workers", "3"],
        cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    failures: list[str] = []
    try:
        base = None
        ready = False
        deadline = time.monotonic() + STARTUP_DEADLINE_S
        assert serve.stderr is not None
        while time.monotonic() < deadline and not (base and ready):
            line = serve.stderr.readline()
            if not line:
                break
            match = URL_LINE.search(line)
            if match:
                base = match.group(1).rstrip("/")
            if READY_LINE.search(line):
                ready = True
        if base is None or not ready:
            print("FAIL: serve never announced URL + readiness",
                  file=sys.stderr)
            return 1
        print(f"service at {base}")

        started = time.monotonic()
        submits = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "submit",
                 "--server", base,
                 "--method", "spr", "--dataset", "jester",
                 "-k", k, "--n-items", "60", "--seed", seed,
                 "--tenant", tenant, "--cost-sla", "500000",
                 "--wait"],
                cwd=ROOT, env=_env(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for tenant, k, seed in SUBMISSIONS
        ]

        # Scrape while the queries run; keep the freshest documents.
        queries_doc: dict = {}
        metrics_body = ""
        error_rows: list = []
        while any(proc.poll() is None for proc in submits):
            try:
                doc = _scrape(base + "/queries")
                if isinstance(doc, dict) and doc.get("queries"):
                    queries_doc = doc
                    error_rows += [
                        row for row in doc["queries"] if "error" in row
                    ]
                metrics_body = _scrape(base + "/metrics") or metrics_body
            except OSError:
                pass
            time.sleep(0.05)

        for proc, (tenant, k, _seed) in zip(submits, SUBMISSIONS):
            out, err = proc.communicate(timeout=SUBMIT_TIMEOUT_S)
            if proc.returncode != 0:
                failures.append(
                    f"submit (tenant={tenant}) exited {proc.returncode}:\n{err}"
                )
            elif f"done: top-{k}" not in out:
                failures.append(
                    f"submit (tenant={tenant}) printed no done line:\n{out}"
                )

        # One final scrape after completion: the rows persist on the board
        # until the service drops them, and the service block always lists
        # totals.
        try:
            queries_doc = _scrape(base + "/queries") or queries_doc
            metrics_body = _scrape(base + "/metrics") or metrics_body
        except OSError:
            pass
        error_rows += [
            row for row in queries_doc.get("queries", []) if "error" in row
        ]
        if error_rows:
            failures.append(f"/queries rows carried an error: {error_rows[:3]}")

        service_block = queries_doc.get("service") or {}
        if not service_block:
            failures.append(f"/queries carried no service block: {queries_doc}")
        tenants = {
            row.get("tenant")
            for row in queries_doc.get("queries", [])
            if isinstance(row, dict)
        }
        cache_tenants = (service_block.get("cache") or {}).get("tenants") or {}
        seen = tenants | set(cache_tenants)
        for tenant in ("acme", "globex"):
            if tenant not in seen:
                failures.append(f"/queries never attributed tenant {tenant!r}")
        if "service_queries_total" not in metrics_body:
            failures.append("service_queries_total never appeared in /metrics")
        wall_s = time.monotonic() - started
        allowed = len(SUBMISSIONS) * (1 + math.ceil(wall_s / RESULT_WAIT_S))
        match = RESULT_REQUESTS.search(metrics_body)
        results = float(match.group(1)) if match else 0.0
        if not 1 <= results <= allowed:
            failures.append(
                f"{results:g} /result requests in {wall_s:.1f}s; expected "
                f"1..{allowed} from {len(SUBMISSIONS)} waiting submits"
            )
    finally:
        serve.terminate()
        try:
            serve.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            serve.kill()
            serve.communicate()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "OK: 3 queries from 2 tenants submitted over HTTP, completed "
        "within their SLAs; /queries attributed both tenants, /metrics "
        "exposed service_queries_total and /result was waited on, not polled"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
