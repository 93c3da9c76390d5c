"""Statistical building blocks: t quantiles, reference-selection math,
Thurstone win probabilities, and median-selection cost bounds."""

from .median_cost import MEDIAN_COST_BOUNDS, median_cost_upper_bound
from .reference import (
    hit_probability,
    median_in_sweet_spot_probability,
    solve_sampling_plan,
)
from .tdist import t_quantile, t_quantiles
from .thurstone import win_probability
from .planning import predict_infimum_cost, predict_pair_workload
from .workload import binary_workload, student_workload, workload_ratio

__all__ = [
    "predict_infimum_cost",
    "predict_pair_workload",
    "binary_workload",
    "student_workload",
    "workload_ratio",
    "MEDIAN_COST_BOUNDS",
    "median_cost_upper_bound",
    "hit_probability",
    "median_in_sweet_spot_probability",
    "solve_sampling_plan",
    "t_quantile",
    "t_quantiles",
    "win_probability",
]
