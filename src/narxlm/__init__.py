"""NARX forecasting with Levenberg-Marquardt training.

Open-loop (series-parallel) training on lagged OHLCV channels, closed-loop
(parallel) multi-step simulation, regularized least-squares optimization, and
residual-correlation diagnostics.
"""

__version__ = "0.1.0"

from .data import (
    DelayedDataset,
    NormalizationSpec,
    TimeSeriesFrame,
    apply_normalization,
    fit_normalization,
    invert_normalization,
    load_ohlcv,
    prepare_delayed,
    split_indices,
)
from .diagnostics import (
    DiagnosticsReport,
    VerdictThresholds,
    acceptance_verdict,
    confidence_bound,
    diagnose,
    error_autocorrelation,
    input_error_crosscorrelation,
    max_divergence,
    regression_r,
)
from .network import (
    ClosedLoopNarx,
    NarxConfig,
    NarxNetwork,
    forward_open,
    init_weights,
    jacobian,
)
from .sweep import SweepGrid, SweepRow, run_sweep, select_best
from .training import (
    TrainParams,
    TrainReport,
    lm_step,
    msereg,
    train,
    train_with_restarts,
)
