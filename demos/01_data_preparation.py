"""Walk through the data layer: loading, normalization, tapped delays, splits.

Generates a synthetic OHLCV CSV, loads it back, normalizes the channels to
[-1, 1], and builds the supervised matrices a network trains on.
"""

import tempfile
from pathlib import Path

import numpy as np

from narxlm.data import (
    fit_normalization,
    apply_normalization,
    load_ohlcv,
    prepare_delayed,
)
from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame

workdir = Path(tempfile.mkdtemp(prefix="narxlm-demo-"))
csv_path = workdir / "synthetic_ohlcv.csv"

frame, _teacher = synthetic_ohlcv_frame(300, seed=7, noise_std=0.02)
frame_to_csv(frame, csv_path)
print(f"wrote {csv_path} ({len(frame)} rows)")

frame = load_ohlcv(csv_path)
print(f"first close prices: {np.round(frame.close[:5], 3)}")

# fit min/max scaling on the first 70% of rows only, then apply everywhere
channels = ["open", "high", "low", "volume", "close"]
spec = fit_normalization(frame, channels, fit_rows=int(0.7 * len(frame)))
norm = apply_normalization(frame, spec)
print(f"normalized close range: [{norm.close.min():.3f}, {norm.close.max():.3f}]")

# lag sets: exogenous lags 0..1, feedback lag 1
dataset = prepare_delayed(norm, d_u=(0, 1), d_y=(1,))
print(f"supervised samples: {dataset.n_samples}")
print(f"regressor width: {dataset.X.shape[1]} exogenous + "
      f"{dataset.Y_hist.shape[1]} feedback taps")

# the dataset owns its 70/15/15 blocks, which training and scoring read
train_idx, val_idx, test_idx = dataset.splits
print(f"split sizes: train {len(train_idx)}, val {len(val_idx)}, "
      f"test {len(test_idx)} (contiguous temporal blocks)")
