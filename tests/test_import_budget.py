"""Every query door starts without ``scipy.stats`` or ``scipy.optimize``.

Each ``crowd-topk query`` and ``serve`` starts a fresh interpreter, so what
``import repro`` loads is paid once per door.  The query path needs only
``scipy.special`` (the Student-t quantile, the binomial tail of Lemma 2,
the normal CDF of the imdb taste model); ``scipy.stats`` and
``scipy.optimize`` would add about 0.7 s and 45 MiB to every start.  This
test drives the doors in a fresh interpreter and checks neither module
was loaded, then checks that CrowdBT, the one caller of
``scipy.optimize``, still runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_DRIVER = """
import contextlib, io, json, sys

import repro
import repro.cli
from repro.algorithms import ALGORITHMS
from repro.cli import main
from repro.datasets import DATASET_NAMES, load_dataset

codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    for name in DATASET_NAMES:
        load_dataset(name)
    for method in sorted(ALGORITHMS):
        codes[method] = main([
            "query", "--dataset", "imdb", "--method", method, "-k", "3",
            "--n-items", "12", "--seed", "1",
        ])
    codes["explain"] = main([
        "explain", "--dataset", "imdb", "-k", "3", "--n-items", "12", "--seed", "1",
    ])
    codes["plan"] = main(["plan", "--n-items", "200", "-k", "5"])
    codes["datasets"] = main(["datasets"])
loaded = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]

dataset = load_dataset("jester")
outcome = repro.crowdbt_topk(
    dataset.session(seed=1), dataset.items.ids.tolist()[:10], 3, budget=200
)
print(json.dumps({
    "methods": sorted(ALGORITHMS),
    "codes": codes,
    "loaded": loaded,
    "crowdbt_topk": [int(i) for i in outcome.topk],
}))
"""


def test_doors_load_neither_scipy_stats_nor_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("CROWD_TOPK_FAULT_RATE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["methods"]) == 7
    assert report["codes"] == dict.fromkeys(
        [*report["methods"], "explain", "plan", "datasets"], 0
    )
    assert report["loaded"] == []
    assert len(set(report["crowdbt_topk"])) == 3
