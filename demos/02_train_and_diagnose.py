"""Train a NARX model with Levenberg-Marquardt and inspect the diagnostics.

The close price here is a known nonlinear function of the other channels
plus noise, so a well-configured network should reach R close to 1 with
residuals that look like white noise.
"""

import numpy as np

from narxlm.pipeline import evaluate_open, fit, prepare
from narxlm.synth import synthetic_ohlcv_frame
from narxlm.training import TrainParams

frame, _teacher = synthetic_ohlcv_frame(800, seed=21, noise_std=0.005)
prep = prepare(frame, d_u=(0, 1), d_y=(1,))

params = TrainParams(xi=0.9, epochs=300, restarts=5)
report = fit(prep, n_hidden=5, params=params, seed=42)

print(f"stop reason:      {report.stop_reason}")
print(f"epochs run:       {len(report.records)}")
print(f"best epoch:       {report.best_epoch} (early-stopping restoration)")
print(f"validation MSE:   {report.best_val_mse:.3e}")

for rec in report.records[:5]:
    print(f"  epoch {rec.epoch}: objective {rec.train_objective:.3e} "
          f"val {rec.val_mse:.3e} lambda {rec.lam:.3g}")

# one-step-ahead diagnostics on the held-out test block
diag = evaluate_open(report.network, prep, idx=prep.dataset.splits[2], xi=params.xi)
print(f"\ntest-block R:     {diag.r_value:.5f}")
print(f"max divergence:   {diag.max_divergence_pct:.3f}%")
print(f"MSE (normalized): {diag.mse:.3e}")
print(f"verdict:          {'accept' if diag.accepted else 'reject'} {diag.reasons}")

# residual whiteness: autocorrelation spikes outside the band indicate
# structure the network missed
outside = int(np.sum(np.abs(diag.autocorr[1:]) > diag.autocorr_bound))
print(f"autocorr lags outside 95% band: {outside}/{len(diag.autocorr) - 1}")
print(f"input-error correlations within band: {diag.xcorr_within_bounds}")
