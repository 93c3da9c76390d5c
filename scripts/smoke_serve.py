#!/usr/bin/env python
"""CI smoke check for the live observatory.

Launches ``crowd-topk query --serve 127.0.0.1:0`` as a real subprocess,
reads the ephemeral URL it announces on stderr, and scrapes ``/metrics``
and ``/queries`` while the query is still running.  Passes only when

* the CLI exits 0 and prints its normal summary,
* both endpoints answered 200 with the right content type mid-query,
* ``/queries`` listed the running query by name,
* no scraped ``/queries`` row carried an ``error`` key, and
* a ``/metrics`` scrape exposed ``crowd_microtasks_total``.

Run from the repository root: ``python scripts/smoke_serve.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parent.parent
URL_LINE = re.compile(r"observatory serving at (http://\S+)")
QUERY_NAME = "jester:spr:k=10"
STARTUP_DEADLINE_S = 60.0


def _scrape(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            response.headers.get("Content-Type", ""),
        )


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "query",
            "--dataset", "jester", "--method", "spr",
            "-k", "10", "--n-items", "99", "--seed", "3",
            "--serve", "127.0.0.1:0",
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )

    base = None
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    assert proc.stderr is not None
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        match = URL_LINE.search(line)
        if match:
            base = match.group(1).rstrip("/")
            break
    if base is None:
        proc.kill()
        out, err = proc.communicate()
        print("FAIL: CLI never announced an observatory URL", file=sys.stderr)
        print(err, file=sys.stderr)
        return 1
    print(f"observatory at {base}")

    # Scrape continuously while the query runs; keep the freshest bodies.
    metrics_body = ""
    metrics_type = ""
    queries_doc: dict = {}
    error_rows: list = []
    scrapes = 0
    saw_microtasks = False
    while proc.poll() is None:
        try:
            status, body, ctype = _scrape(base + "/metrics")
            if status == 200:
                metrics_body, metrics_type = body, ctype
                saw_microtasks |= "crowd_microtasks_total" in body
            status, body, _ = _scrape(base + "/queries")
            if status == 200:
                queries_doc = json.loads(body)
                error_rows += [
                    row for row in queries_doc["queries"] if "error" in row
                ]
            scrapes += 1
        except (urllib.error.URLError, ConnectionError, OSError):
            break  # server went down as the query finished
        time.sleep(0.05)

    stdout, stderr = proc.communicate(timeout=60)
    failures = []
    if proc.returncode != 0:
        failures.append(f"CLI exited {proc.returncode}:\n{stderr}")
    if "TMC:" not in stdout:
        failures.append("CLI summary missing from stdout")
    if scrapes == 0:
        failures.append("no successful scrape completed while serving")
    if "text/plain" not in metrics_type:
        failures.append(f"bad /metrics content type: {metrics_type!r}")
    if not saw_microtasks:
        failures.append("crowd_microtasks_total never appeared in /metrics")
    names = [entry.get("query") for entry in queries_doc.get("queries", [])]
    if QUERY_NAME not in names:
        failures.append(f"/queries never listed {QUERY_NAME!r}: {names}")
    if error_rows:
        failures.append(f"/queries rows carried an error: {error_rows[:3]}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: {scrapes} live scrapes; /metrics exposed "
        f"crowd_microtasks_total; /queries tracked {QUERY_NAME!r}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
