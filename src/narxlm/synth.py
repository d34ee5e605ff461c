"""Synthetic data generation for testing and demos.

A randomly initialized network acts as a teacher: driven by random exogenous
sequences, it produces a target series with a known generating equation.  The
same machinery also fabricates OHLCV-shaped frames whose close price is a
teacher function of the other channels, so the whole pipeline can be
exercised without market data.
"""

from __future__ import annotations

import numpy as np

from .data import DEFAULT_EXO_CHANNELS, TimeSeriesFrame, _csv_text, _taps, fit_normalization
from .errors import ShapeError, ValidationError
from .network import ClosedLoopNarx, NarxConfig, NarxNetwork, init_weights


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


# the teacher of synthetic_ohlcv_frame and the band its close is mapped into
TEACHER_HIDDEN = 5
TEACHER_D_U = (0, 1)
TEACHER_D_Y = (1,)
PRICE_RANGE = (20.0, 22.0)


def synthetic_ohlcv_frame(n_rows: int, seed: int, noise_std: float = 0.0):
    """OHLCV frame whose close price is a teacher function of O/H/L/V.

    Open, high, low wander inside a price band (high >= low enforced), volume
    inside a share band.  The channels are normalized to [-1, 1], fed through
    a random teacher network (TEACHER_HIDDEN tanh units, lags TEACHER_D_U and
    TEACHER_D_Y), and the resulting series (plus optional noise) is mapped
    into PRICE_RANGE as the close.  Returns (frame, teacher).
    """
    rng = np.random.default_rng(seed)
    lo, hi = PRICE_RANGE
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

    config = NarxConfig(TEACHER_D_U, TEACHER_D_Y, TEACHER_HIDDEN, n_exo=len(exo))
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
    # one row at a time: a list per column would hold every cell as an object
    rows = ((int(t), *map(float, cells)) for t, *cells in zip(
        frame.timesteps, frame.open, frame.high, frame.low, frame.close, frame.volume,
        frame.adj_close))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_text(["Date", "Open", "High", "Low", "Close", "Volume", "Adj Close"], rows))
