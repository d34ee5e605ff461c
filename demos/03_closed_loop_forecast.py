"""Convert a trained open-loop network to closed-loop and forecast 100 steps.

In open loop the feedback taps read true past targets (one-step-ahead).
Closing the loop replays the network's own predictions instead, which is
what makes multi-step-ahead forecasting possible.
"""

import numpy as np

from narxlm.pipeline import fit, prepare, simulate, simulate_diagnostics
from narxlm.synth import synthetic_ohlcv_frame
from narxlm.training import TrainParams

frame, _teacher = synthetic_ohlcv_frame(800, seed=33, noise_std=0.02)

prep = prepare(frame, d_u=(0, 1), d_y=(1,))
report = fit(prep, n_hidden=5,
             params=TrainParams(xi=1.0, epochs=200, restarts=3), seed=1)

horizon = 100
start = len(frame) - horizon
ts, preds, targets = simulate(report.network, prep, start, horizon)
diag = simulate_diagnostics(preds, targets, prep, start)
# the rollout is normalized; invert it to prices for printing
preds, targets = (prep.norm_spec.invert_values(v, "close") for v in (preds, targets))

print(f"simulated {horizon} days starting at timestep {ts[0]}")
print("day  target   predicted  error")
for i in (0, 1, 2, 49, 99):
    print(f"{i + 1:>3}  {targets[i]:.4f}  {preds[i]:.4f}   "
          f"{preds[i] - targets[i]:+.4f}")
print(f"\nsimulation R:        {diag.r_value:.5f}")
print(f"max divergence:      {diag.max_divergence_pct:.3f}%")
print(f"mean absolute error: {np.mean(np.abs(preds - targets)):.4f} "
      "(price units)")
