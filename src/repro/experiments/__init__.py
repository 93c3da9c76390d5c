"""Experiment harness regenerating every table and figure of the paper.

Each module maps to one experiment of §6 / Appendix F (see DESIGN.md §4 for
the full index).  All entry points accept ``n_runs`` and ``seed`` so the
benchmarks can run them at laptop scale while the full paper-scale runs
remain one parameter away.
"""

from .accuracy import run_accuracy
from .appendix_d import run_appendix_d
from .non_confidence import run_non_confidence
from .params import (
    BUDGETS,
    CONFIDENCES,
    ITEM_COUNTS,
    K_VALUES,
    REFERENCE_CHANGES,
    SWEET_SPOTS,
    ExperimentParams,
)
from .parallel import (
    RunSpec,
    resolve_jobs,
    run_specs,
    set_default_jobs,
    use_jobs,
)
from .peopleage import run_peopleage
from .reporting import Report
from .robustness import run_robustness
from .runner import MethodStats, RunRecord, run_infimum, run_method, run_methods
from .scalability import run_scalability
from .spr_vs_bdp import run_spr_vs_bdp
from .stein_vs_student import run_stein_vs_student
from .summary import run_summary
from .sweet_spot import run_sweet_spot
from .table3 import run_table3
from .table4 import run_table4
from .table7 import run_table7

__all__ = [
    "BUDGETS",
    "CONFIDENCES",
    "ExperimentParams",
    "ITEM_COUNTS",
    "K_VALUES",
    "MethodStats",
    "REFERENCE_CHANGES",
    "Report",
    "RunRecord",
    "RunSpec",
    "SWEET_SPOTS",
    "resolve_jobs",
    "run_specs",
    "set_default_jobs",
    "use_jobs",
    "run_accuracy",
    "run_appendix_d",
    "run_infimum",
    "run_method",
    "run_methods",
    "run_non_confidence",
    "run_peopleage",
    "run_robustness",
    "run_scalability",
    "run_spr_vs_bdp",
    "run_stein_vs_student",
    "run_summary",
    "run_sweet_spot",
    "run_table3",
    "run_table4",
    "run_table7",
]
