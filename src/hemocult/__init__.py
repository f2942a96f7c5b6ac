"""Synthetic ICU cohorts and a from-scratch bidirectional LSTM pipeline
for predicting positive blood cultures from irregular clinical time series."""

__version__ = "0.1.0"

from .cohort import CohortConfig, PatientSeries, generate_cohort, read_cohort, write_cohort
from .lstm import (CellParams, ModelParams, init_params, load_params,
                   save_params, weighted_mse)
from .metrics import (PRCurve, baseline_constant, baseline_proportional,
                      export_curve, pr_auc, pr_curve)
from .prep import (NormStats, SampleTensor, build_tensor, filter_outliers,
                   fit_normalizer, normalize, read_tensors, resample_channel,
                   select_end_time, write_tensors)
from .training import (FoldPlan, HyperParams, TrainResult, ensemble_scores,
                       grid_search, make_folds, stratified_split, train_one)

__all__ = [
    "CohortConfig", "PatientSeries", "generate_cohort", "read_cohort", "write_cohort",
    "CellParams", "ModelParams", "init_params", "load_params", "save_params",
    "weighted_mse",
    "PRCurve", "baseline_constant", "baseline_proportional",
    "export_curve", "pr_auc", "pr_curve",
    "NormStats", "SampleTensor", "build_tensor", "filter_outliers",
    "fit_normalizer", "normalize", "read_tensors", "resample_channel",
    "select_end_time", "write_tensors",
    "FoldPlan", "HyperParams", "TrainResult", "ensemble_scores",
    "grid_search", "make_folds", "stratified_split", "train_one",
]
