"""Model evaluation: regression R, divergence, residual correlation checks.

The accept/reject gate combines the Pearson R between outputs and targets,
the maximum percent divergence in price units, and an MSE ceiling.  Residual
whiteness is probed with normalized auto- and cross-correlations out to lag
MAX_LAG = 20 against the 95% white-noise band +/- 1.96 / sqrt(n).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedStatisticError, ValidationError

Z_95 = 1.96
MAX_LAG = 20  # residual correlations run over lags up to this


def confidence_bound(n: int) -> float:
    """Half-width of the 95% white-noise band for n observations."""
    return Z_95 / math.sqrt(n)


def _mse(errors) -> float:
    """mean(errors^2): the one MSE, of ``diagnose``, ``training.msereg`` and
    ``training.train``'s epoch log."""
    return float(np.mean(errors ** 2))


def regression_r(outputs, targets) -> float:
    """Pearson correlation coefficient between outputs and targets.

    Zero variance leaves R undefined and raises ``UndefinedStatisticError``.
    The denominator is ``sqrt(a * b)`` of the two sums of squares; when that
    product overflows, or underflows below the normal floats (where its root
    loses bits or is 0), it is ``sqrt(a) * sqrt(b)``, and R, which may then
    round past 1, is clipped to [-1, 1].  A sum of squares that overflows
    itself raises too.
    """
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if outputs.shape != targets.shape or outputs.size == 0:
        raise ValidationError("outputs and targets must be equal-length, non-empty")
    o = outputs - outputs.sum() / outputs.size
    t = targets - targets.sum() / targets.size
    a, b = float(o @ o), float(t @ t)  # Python floats overflow to inf without a warning
    if a == 0.0 or b == 0.0:
        raise UndefinedStatisticError("zero variance: R undefined")
    ab = a * b
    if ab == math.inf or ab < sys.float_info.min:  # a NaN passes neither test
        denom = math.sqrt(a) * math.sqrt(b)
        if denom == math.inf:
            raise UndefinedStatisticError("variance overflows: R undefined")
        return min(max(float((o @ t) / denom), -1.0), 1.0)
    return float((o @ t) / math.sqrt(ab))  # a NaN output leaves R NaN, which the verdict rejects


def max_divergence(outputs, targets) -> float:
    """max |output - target| / |target| * 100, in the caller's price units."""
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if outputs.shape != targets.shape or outputs.size == 0:
        raise ValidationError("outputs and targets must be equal-length, non-empty")
    scale = np.abs(targets)
    if (scale == 0.0).any():
        raise UndefinedStatisticError("zero target value: divergence undefined")
    return float((np.abs(outputs - targets) / scale).max() * 100.0)


def _residual_correlations(errors, channels, max_lag: int):
    """Residual autocorrelation and every channel's cross-correlation in one pass.

    Returns (rho(0..max_lag), one row of rho(-max_lag..max_lag) per channel,
    band half-width).  The residual is centred and its sum of squares taken
    once.  Row j of a strided window view over the zero-padded centred
    residual e holds e[j + L] for L = -max_lag..max_lag, so sum_j x[j] *
    e[j + L] for every lag is one product with the view: one for the
    autocorrelation, one (C, n) matmul for the channels.  Raises, in this
    order: ValidationError for a series no longer than max_lag,
    UndefinedStatisticError for a constant residual, ValidationError for a
    channel of another length, UndefinedStatisticError for a constant
    channel.
    """
    e = np.asarray(errors, dtype=float)
    n = e.size
    if max_lag < 1 or n <= max_lag:
        raise ValidationError("need series longer than max_lag >= 1")
    ec = e - e.sum() / n
    ss = float(ec @ ec)
    if ss == 0.0:
        raise UndefinedStatisticError("constant error series: autocorrelation undefined")
    X = np.empty((len(channels), n))
    for i, x in enumerate(channels):
        x = np.asarray(x, dtype=float)
        if x.shape != e.shape:
            raise ValidationError("channel and errors must be equal length")
        X[i] = x
    xc = X - X.sum(axis=1, keepdims=True) / n
    sx = np.sqrt(np.einsum("ij,ij->i", xc, xc))
    if (sx == 0.0).any():
        raise UndefinedStatisticError("zero variance: cross-correlation undefined")
    ep = np.zeros(n + 2 * max_lag)
    ep[max_lag:max_lag + n] = ec
    # a strided view on ep's buffer; numpy's as_strided costs ~4x more per call
    step = ep.itemsize
    windows = np.ndarray((n, 2 * max_lag + 1), dtype=ep.dtype, buffer=ep,
                         strides=(step, step))
    rho = (ec @ windows[:, max_lag:]) / ss
    rho[0] = 1.0
    return rho, (xc @ windows) / (sx[:, None] * math.sqrt(ss)), confidence_bound(n)


def error_autocorrelation(errors, max_lag: int):
    """Normalized autocorrelation rho(0..max_lag) and the 95% band half-width.

    rho(0) = 1 by construction.  Public API, exported by ``narxlm``: a
    one-series view of ``_residual_correlations``, which ``diagnose`` calls.
    """
    rho, _, bound = _residual_correlations(errors, (), max_lag)
    return rho, bound


def input_error_crosscorrelation(exo_channel, errors, max_lag: int):
    """Normalized cross-correlation for lags -max_lag..+max_lag plus the band.

    Lag L correlates error(k) with input(k - L); normalization is by the
    product of the two standard deviations, so a copied series gives 1 at
    lag 0.  Public API, exported by ``narxlm``: a one-channel view of
    ``_residual_correlations``, which ``diagnose`` calls.
    """
    x = np.asarray(exo_channel, dtype=float)
    e = np.asarray(errors, dtype=float)
    if x.shape != e.shape:
        raise ValidationError("channel and errors must be equal length")
    try:
        _, rho, bound = _residual_correlations(e, (x,), max_lag)
    except UndefinedStatisticError:  # either series constant
        raise UndefinedStatisticError("zero variance: cross-correlation undefined") from None
    return np.arange(-max_lag, max_lag + 1), rho[0], bound


@dataclass(frozen=True)
class VerdictThresholds:
    r_min: float = 0.99
    divergence_max: float = 10.0
    mse_max: float = np.inf

    def __post_init__(self):
        # a NaN bound compares False both ways, so it would accept anything
        if np.isnan(self.r_min) or not (self.divergence_max >= 0 and self.mse_max >= 0):
            raise ValidationError(f"need a number r_min and bounds >= 0, got {self}")


def acceptance_verdict(r_value: float, max_divergence_pct: float, mse: float,
                       thresholds: VerdictThresholds = VerdictThresholds()):
    """(accepted, reasons): reasons list every violated criterion.

    Each test is written as "not within bound", so a NaN metric violates it.
    """
    reasons = []
    if not r_value >= thresholds.r_min:
        reasons.append(f"R {r_value:.6g} < {thresholds.r_min}")
    if not max_divergence_pct <= thresholds.divergence_max:
        reasons.append(
            f"max divergence {max_divergence_pct:.4g}% > {thresholds.divergence_max}%")
    if not mse <= thresholds.mse_max:
        reasons.append(f"MSE {mse:.6g} > {thresholds.mse_max}")
    return (not reasons), reasons


@dataclass
class DiagnosticsReport:
    mse: float
    msereg: float | None
    r_value: float
    max_divergence_pct: float
    autocorr: np.ndarray = field(repr=False)
    autocorr_bound: float = 0.0
    xcorr: dict = field(repr=False, default_factory=dict)  # channel -> (lags, rho)
    xcorr_bound: float = 0.0
    accepted: bool = False
    reasons: list = field(default_factory=list)

    @property
    def xcorr_within_bounds(self) -> bool:
        return all(np.all(np.abs(rho) <= self.xcorr_bound)
                   for _, rho in self.xcorr.values())

    def to_dict(self) -> dict:
        return {
            "mse": self.mse,
            "msereg": self.msereg,
            "r_value": self.r_value,
            "max_divergence_pct": self.max_divergence_pct,
            "autocorr": list(self.autocorr),
            "autocorr_bound": self.autocorr_bound,
            "xcorr": {ch: {"lags": [int(l) for l in lags], "rho": list(rho)}
                      for ch, (lags, rho) in self.xcorr.items()},
            "xcorr_bound": self.xcorr_bound,
            "xcorr_within_bounds": self.xcorr_within_bounds,
            "accepted": self.accepted,
            "reasons": self.reasons,
        }


def diagnose(outputs_price, targets_price, errors_norm, exo_channels_norm,
             msereg: float | None = None,
             thresholds: VerdictThresholds = VerdictThresholds()) -> DiagnosticsReport:
    """Full report: metrics in price units, correlations on normalized errors.

    exo_channels_norm maps channel name -> normalized series aligned with
    errors_norm.  Correlations run to MAX_LAG, clamped to the available
    series length, and come from one pass over the residual
    (``_residual_correlations``): it is centred once, and the
    autocorrelation and every channel's cross-correlation share one lag
    window.  ``msereg`` is the training objective on the same block (the
    caller's ``training.msereg``); without it the report's msereg is None.
    An MSE or a variance that overflows raises ``UndefinedStatisticError``,
    so no report holds an inf or a NaN made from one.
    """
    outputs_price = np.asarray(outputs_price, dtype=float)
    targets_price = np.asarray(targets_price, dtype=float)
    errors_norm = np.asarray(errors_norm, dtype=float)
    n = errors_norm.size
    if n:  # an empty residual raises below, before mse is read
        mse = _mse(errors_norm)
        if not math.isfinite(mse):
            raise UndefinedStatisticError(f"MSE overflows: {mse} over {n} normalized errors")
    r = regression_r(outputs_price, targets_price)
    div = max_divergence(outputs_price, targets_price)

    lag = min(MAX_LAG, n - 1)
    ac, rho, bound = _residual_correlations(errors_norm, list(exo_channels_norm.values()),
                                            lag)
    lags = np.arange(-lag, lag + 1)
    xcorr = {ch: (lags, row) for ch, row in zip(exo_channels_norm, rho)}

    accepted, reasons = acceptance_verdict(r, div, mse, thresholds)
    return DiagnosticsReport(
        mse=mse, msereg=msereg,
        r_value=r, max_divergence_pct=div,
        autocorr=ac, autocorr_bound=bound,
        xcorr=xcorr, xcorr_bound=bound,
        accepted=accepted, reasons=reasons,
    )
