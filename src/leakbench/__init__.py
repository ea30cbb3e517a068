"""leakbench: a leakage-aware evaluation harness for univariate
time-series forecasting.

Builds sliding-window datasets, applies 2-way / 3-way / k-fold validation
in leaky (window-then-split) and clean (split-then-window) modes, trains a
from-scratch LSTM forecaster, audits train/test contamination as raw-index
overlap, and quantifies leakage-induced evaluation bias via the RMSE gain
metric.
"""

__version__ = "0.1.0"

from .audit import AuditReport, apply_buffer, audit, minimal_clearing_gap
from .errors import (
    AuditError,
    ContaminationError,
    DataError,
    LeakbenchError,
    SplitError,
    TrainingError,
    WindowError,
)
from .forecaster import (
    LstmModel,
    Scaler,
    TrainConfig,
    TrainOutcome,
    baseline_linear_ar,
    baseline_persistence,
    gradient_check,
    predict,
    train_many,
    unpack,
)
from .metrics import GainRecord, RunStats, aggregate, leakage_rank, rmse, rmse_gain
from .runner import (
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    load_report,
    recompute_gains,
    run_experiment,
)
from .series import (
    DescriptiveStats,
    Decomposition,
    TimeSeries,
    describe,
    load_csv,
    seasonal_decompose,
    write_csv,
)
from .splitting import SplitPlan, SplitResult, SplitSpec, split
from .synthetic import reference_series, write_reference_csv
from .windowing import SequenceSet, WindowConfig, make_sequences

__all__ = [
    "__version__",
    "AuditError",
    "AuditReport",
    "CellResult",
    "ContaminationError",
    "DataError",
    "Decomposition",
    "DescriptiveStats",
    "ExperimentConfig",
    "ExperimentReport",
    "GainRecord",
    "LeakbenchError",
    "LstmModel",
    "RunStats",
    "Scaler",
    "SequenceSet",
    "SplitError",
    "SplitPlan",
    "SplitResult",
    "SplitSpec",
    "TimeSeries",
    "TrainConfig",
    "TrainOutcome",
    "TrainingError",
    "WindowConfig",
    "WindowError",
    "aggregate",
    "apply_buffer",
    "audit",
    "baseline_linear_ar",
    "baseline_persistence",
    "describe",
    "emit_report",
    "gradient_check",
    "leakage_rank",
    "load_csv",
    "load_report",
    "make_sequences",
    "minimal_clearing_gap",
    "predict",
    "recompute_gains",
    "reference_series",
    "rmse",
    "rmse_gain",
    "run_experiment",
    "seasonal_decompose",
    "split",
    "train_many",
    "unpack",
    "write_csv",
    "write_reference_csv",
]
