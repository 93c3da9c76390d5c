"""Run ``crowd-topk serve`` with the layer tracer installed.

Usage::

    python3 perfbench/serve_traced.py OUT.json serve [serve options]

The deployment stays a process of its own; only the layers' public
functions are wrapped.  When ``serve`` exits (on SIGINT), the layer
totals are written to ``OUT.json``.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        temp = f"{out}.tmp"
        with open(temp, "w", encoding="utf-8") as sink:
            json.dump(tracer.totals(), sink)
        os.replace(temp, out)


if __name__ == "__main__":
    sys.exit(main())
