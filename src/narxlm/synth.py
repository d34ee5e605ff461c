"""Synthetic data generation for testing and demos.

A randomly initialized network acts as a teacher: driven by random exogenous
sequences, it produces a target series with a known generating equation.  The
same machinery also fabricates OHLCV-shaped frames whose close price is a
teacher function of the other channels, so the whole pipeline can be
exercised without market data.
"""

from __future__ import annotations

import numpy as np

from .data import (
    DEFAULT_EXO_CHANNELS,
    DelayedDataset,
    TimeSeriesFrame,
    _delayed,
    _taps,
    fit_normalization,
)
from .errors import ShapeError, ValidationError
from .network import ClosedLoopNarx, NarxConfig, NarxNetwork, init_weights


def make_supervised(U: np.ndarray, y: np.ndarray, d_u, d_y) -> DelayedDataset:
    """DelayedDataset straight from raw arrays (U: (n, n_exo) or (n,), y: (n,))."""
    U = np.column_stack([np.asarray(U, dtype=float)])  # a 1-D U is one column
    y = np.asarray(y, dtype=float)
    if U.shape[0] != y.shape[0]:
        raise ValidationError("U and y must have equal length")
    return _delayed(U.T, y, d_u, d_y)


def drive_teacher(net: NarxNetwork, U: np.ndarray, seed: int | None = None,
                  noise_std: float = 0.0) -> np.ndarray:
    """Iterate the teacher over exogenous rows U, feeding back its own output.

    U is (n, n_exo), or (n,) for one channel.  The first max-lag values of
    y are zero (delay fill); the rest are ``ClosedLoopNarx.simulate`` primed
    with those zeros, on the rows k - max-lag of the tap matrix that
    ``data`` builds for a DelayedDataset.  Optional white noise of standard
    deviation noise_std (finite, >= 0), n values drawn from seed, is added
    to each output as its innovation and fed back with it.
    """
    c = net.config
    U = np.column_stack([np.asarray(U, dtype=float)])  # a 1-D U is one column
    if U.ndim != 2 or U.shape[1] != c.n_exo:
        raise ShapeError(f"U shape {U.shape} != (n, {c.n_exo})")
    if not 0.0 <= noise_std < np.inf:
        raise ValidationError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    n = U.shape[0]
    ks = np.arange(max(max(c.d_u), max(c.d_y)), n)  # the steps after the delay fill
    noise = np.random.default_rng(seed).normal(0.0, noise_std, size=n)
    y = np.zeros(n)
    y[ks] = ClosedLoopNarx(net).simulate(np.zeros(max(c.d_y)), _taps(U.T, c.d_u, ks), noise[ks])
    return y


def teacher_dataset(n_samples: int, seed: int, n_hidden: int = 5,
                    d_u=(0, 1), d_y=(1,), n_exo: int = 2,
                    noise_std: float = 0.0):
    """(teacher, U, y, dataset): a realizable supervised problem.

    U is uniform on [-1, 1]; the returned dataset has exactly n_samples rows.
    """
    config = NarxConfig(d_u=tuple(d_u), d_y=tuple(d_y),
                        n_hidden=n_hidden, n_exo=n_exo)
    teacher = init_weights(config, seed)
    max_lag = max(max(config.d_u), max(config.d_y))
    n = n_samples + max_lag
    rng = np.random.default_rng(seed + 1)
    U = rng.uniform(-1.0, 1.0, size=(n, n_exo))
    y = drive_teacher(teacher, U, seed=seed + 2, noise_std=noise_std)
    return teacher, U, y, make_supervised(U, y, config.d_u, config.d_y)


def synthetic_ohlcv_frame(n_rows: int, seed: int, n_hidden: int = 5,
                          d_u=(0, 1), d_y=(1,),
                          noise_std: float = 0.0,
                          price_range=(20.0, 22.0)):
    """OHLCV frame whose close price is a teacher function of O/H/L/V.

    Open, high, low wander inside a price band (high >= low enforced), volume
    inside a share band.  The channels are normalized to [-1, 1], fed through
    a random teacher network, and the resulting series (plus optional noise)
    is mapped into price_range as the close.  Returns (frame, teacher).
    """
    rng = np.random.default_rng(seed)
    lo, hi = price_range
    mid = 0.5 * (lo + hi)
    amp = 0.5 * (hi - lo)

    # smooth bounded random walks for the price channels
    def walk(scale):
        steps = rng.normal(0.0, scale, size=n_rows)
        w = np.cumsum(steps)
        w = w - w.mean()
        peak = np.max(np.abs(w))
        return mid + (w / peak) * 0.8 * amp if peak > 0 else np.full(n_rows, mid)

    base = walk(1.0)
    spread = np.abs(rng.normal(0.0, 0.05 * amp, size=n_rows))
    open_ = base + rng.normal(0.0, 0.05 * amp, size=n_rows)
    high = np.maximum(open_, base) + spread
    low = np.minimum(open_, base) - spread
    volume = rng.uniform(2e7, 1e8, size=n_rows)

    frame0 = TimeSeriesFrame(
        timesteps=734506 + np.arange(n_rows),
        open=open_, high=high, low=low, volume=volume, close=base,
    )
    exo = DEFAULT_EXO_CHANNELS
    spec = fit_normalization(frame0, exo)
    U = np.column_stack([spec.apply_values(frame0.channel(ch), ch) for ch in exo])

    config = NarxConfig(d_u=tuple(d_u), d_y=tuple(d_y),
                        n_hidden=n_hidden, n_exo=len(exo))
    teacher = init_weights(config, seed + 7)
    y = drive_teacher(teacher, U, seed=seed + 8, noise_std=noise_std)
    span = np.max(y) - np.min(y)
    if span <= 0:
        raise ValidationError("degenerate teacher output")
    close = lo + (y - np.min(y)) * (hi - lo) / span

    frame = TimeSeriesFrame(
        timesteps=734506 + np.arange(n_rows),
        open=open_, high=high, low=low, volume=volume, close=close,
    ).validate_prices()
    return frame, teacher


def frame_to_csv(frame: TimeSeriesFrame, path):
    """Write a frame as a loader-compatible OHLCV CSV."""
    lines = ["Date,Open,High,Low,Close,Volume,Adj Close"]
    for i in range(len(frame)):
        lines.append(",".join([
            str(int(frame.timesteps[i])),
            repr(float(frame.open[i])), repr(float(frame.high[i])),
            repr(float(frame.low[i])), repr(float(frame.close[i])),
            repr(float(frame.volume[i])), repr(float(frame.adj_close[i])),
        ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
