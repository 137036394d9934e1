"""Worst-case distribution shifts for predictive resource-allocation pipelines.

A predictor scores individuals, an allocation rule spends a budget on the
scores, and a decision loss compares that allocation to the one the true
labels would have earned. This package searches for the hierarchical shift,
across problem instances and across individuals within each instance, that
maximizes the expected decision loss over chi-square uncertainty balls, checks
the search against an exact oracle (a closed form for misclass_rate and top_k,
an enumeration of every draw on small pools otherwise), and evaluates
converged shifts across metrics.
"""

from ._version import __version__
from .data import (Cohort, InstancePool, SchemaConfig, SyntheticSpec,
                   demo_cohort_path, generate_synthetic, load_cohort,
                   write_cohort)
from .engine import (FwParams, InstanceTrace, WorstCaseReport,
                     estimate_gradient, estimate_instance_loss, find_worst_case,
                     fw_inner, fw_outer, load_report, pool_data, report_to_dict,
                     save_report, substream)
from .errors import (AllocShiftError, ConfigError, DataError, EmptyCohortError,
                     InfeasibleOffsetError, NumericalError, ParseError,
                     SchemaError)
from .evaluation import (CrossMetricMatrix, OracleRatioCurve,
                         cross_metric_matrix, diagonal_normalize,
                         matrix_from_shifts, metric_names, oracle_ratio_curve)
from .losses import (CrossEntropy, FairnessGini, Knapsack, LossSpec,
                     MisclassRate, Mse, NashWelfare, PoolData, TopK,
                     allocate_waterfill, batch_decision_loss,
                     batch_shifted_loss, gini, loss_spec_to_dict,
                     parse_loss_spec, solve_knapsack, solve_topk)
from .oracle import (enumerate_problems, enumeration_size, exact_gradient,
                     exact_hessian, exact_objective, oracle_maximize,
                     pool_objective)
from .predictors import (LogisticPredictor, MlpPredictor, Predictor,
                         TablePredictor, TrainConfig, load_predictor,
                         load_table_predictions, predict_pool,
                         save_predictor, train)
from .reporting import (read_curve_csv, read_matrix_csv, read_trace_csv,
                        render_heatmap, write_curve_csv, write_matrix_csv,
                        write_trace_csv)
from .uncertainty import (HierarchicalShift, UncertaintyBudget, chi_square_div,
                          gradmax, is_feasible, offset_to_distribution,
                          random_feasible_shift, shift_from_dict,
                          shift_to_dict, uniform_center)

__all__ = [
    "__version__",
    "AllocShiftError", "ConfigError", "DataError", "SchemaError", "ParseError",
    "EmptyCohortError", "NumericalError", "InfeasibleOffsetError",
    "InstancePool", "Cohort", "SchemaConfig", "SyntheticSpec",
    "load_cohort", "write_cohort", "generate_synthetic",
    "demo_cohort_path",
    "Predictor", "LogisticPredictor", "MlpPredictor", "TablePredictor",
    "TrainConfig", "train", "predict_pool", "save_predictor",
    "load_predictor", "load_table_predictions",
    "LossSpec", "TopK", "Knapsack", "FairnessGini", "NashWelfare",
    "MisclassRate", "CrossEntropy", "Mse", "parse_loss_spec",
    "loss_spec_to_dict", "PoolData", "batch_decision_loss",
    "batch_shifted_loss", "solve_topk",
    "solve_knapsack", "allocate_waterfill", "gini",
    "UncertaintyBudget", "chi_square_div", "uniform_center",
    "offset_to_distribution", "HierarchicalShift",
    "shift_to_dict", "shift_from_dict", "is_feasible", "gradmax",
    "random_feasible_shift",
    "enumeration_size", "enumerate_problems",
    "exact_objective", "exact_gradient", "exact_hessian",
    "oracle_maximize", "pool_objective",
    "FwParams", "InstanceTrace", "WorstCaseReport", "substream", "pool_data",
    "estimate_gradient", "fw_inner",
    "estimate_instance_loss", "fw_outer", "find_worst_case", "report_to_dict",
    "save_report", "load_report",
    "CrossMetricMatrix", "OracleRatioCurve", "metric_names", "matrix_from_shifts",
    "cross_metric_matrix", "diagonal_normalize", "oracle_ratio_curve",
    "write_matrix_csv", "read_matrix_csv", "write_curve_csv",
    "read_curve_csv", "write_trace_csv", "read_trace_csv", "render_heatmap",
]
