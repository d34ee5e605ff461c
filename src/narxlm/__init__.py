"""NARX forecasting with Levenberg-Marquardt training.

Open-loop (series-parallel) training on lagged OHLCV channels, closed-loop
(parallel) multi-step simulation, regularized least-squares optimization, and
residual-correlation diagnostics.
"""

import os
import sys

__version__ = "0.1.0"

# One OpenBLAS thread per process.  The LM systems are small (P = 243
# weights at the paper's setting), and a second thread roughly doubles the
# CPU of a `train` run without shortening it; `sweep` workers inherit the
# setting, so parallelism comes from processes.  OpenBLAS reads its
# thread count when numpy is first imported, so the default is set only if
# numpy is not loaded yet, and never over a count the user chose.
BLAS_THREADS_DEFAULTED = "numpy" not in sys.modules and not any(
    var in os.environ
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if BLAS_THREADS_DEFAULTED:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .data import (
    DelayedDataset,
    NormalizationSpec,
    TimeSeriesFrame,
    apply_normalization,
    fit_normalization,
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
    normal_equations,
    train,
    train_with_restarts,
)
