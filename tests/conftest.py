"""Fixtures and helpers shared by the test modules."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import narxlm
from narxlm.data import CHANNELS, TimeSeriesFrame, prepare_delayed
from narxlm.network import NarxConfig, init_weights
from narxlm.synth import drive_teacher

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Five days of INTC-like OHLCV rows used across the data tests.
TABLE_ROWS = {
    "timesteps": [734506, 734507, 734508, 734509, 734510],
    "open": [21.01, 21.12, 21.19, 20.67, 20.71],
    "high": [21.05, 21.2, 21.21, 20.82, 20.77],
    "low": [20.78, 21.05, 20.9, 20.55, 20.27],
    "volume": [58223800, 75206200, 61810500, 116669000, 74806100],
    "close": [20.85, 21.15, 20.94, 20.77, 20.66],
    "adj_close": [18.54, 18.8, 18.62, 18.47, 18.37],
}


@pytest.fixture
def sample_frame():
    return TimeSeriesFrame(**TABLE_ROWS)


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    lines = ["Date,Open,High,Low,Close,Volume,Adj Close"]
    r = TABLE_ROWS
    for i in range(5):
        lines.append(
            f"{r['timesteps'][i]},{r['open'][i]},{r['high'][i]},{r['low'][i]},"
            f"{r['close'][i]},{r['volume'][i]},{r['adj_close'][i]}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def random_frame(rng, n):
    """Valid random OHLCV frame for brute-force checks."""
    base = 20 + np.cumsum(rng.normal(0, 0.2, n))
    spread = np.abs(rng.normal(0, 0.1, n))
    open_ = base + rng.normal(0, 0.1, n)
    return TimeSeriesFrame(
        timesteps=np.arange(n) * 1 + 1000,
        open=open_,
        high=np.maximum(open_, base) + spread,
        low=np.minimum(open_, base) - spread,
        volume=rng.uniform(1e6, 1e8, n),
        close=base,
        adj_close=base * 0.9,
    )


def outputs(directory):
    """{relative path: bytes} of every file a run wrote under ``directory``
    but its manifest, whose timestamp differs from run to run."""
    root = pathlib.Path(directory)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def make_supervised(U, y, d_u, d_y):
    """DelayedDataset straight from raw arrays (U: (n, n_exo <= 5), y: (n,)): U's
    columns fill the first n_exo channels but the close, in CHANNELS order,
    y is the close and every other channel is zero."""
    U = np.asarray(U, dtype=float)
    exo = [ch for ch in CHANNELS if ch != "close"][:U.shape[1]]
    columns = {ch: np.zeros(len(y)) for ch in CHANNELS}
    columns.update(zip(exo, U.T), close=y)
    frame = TimeSeriesFrame(timesteps=np.arange(len(y)), **columns)
    return prepare_delayed(frame, d_u, d_y, exo, "close")


def teacher_dataset(n_samples, seed, n_hidden=5, d_u=(0, 1), d_y=(1,), n_exo=2,
                    noise_std=0.0):
    """A realizable supervised problem of exactly n_samples rows: a random
    teacher network driven by exogenous inputs uniform on [-1, 1]."""
    teacher = init_weights(NarxConfig(d_u=tuple(d_u), d_y=tuple(d_y), n_hidden=n_hidden,
                                      n_exo=n_exo), seed)
    rng = np.random.default_rng(seed + 1)
    U = rng.uniform(-1.0, 1.0, size=(n_samples + max(max(d_u), max(d_y)), n_exo))
    return make_supervised(U, drive_teacher(teacher, U, seed=seed + 2, noise_std=noise_std),
                           d_u, d_y)


def run_child(*args, cwd=None, exits=(0,), **env_vars):
    """Run ``python *args`` on the package in src, check its exit code and
    return its stdout.  The child sees no BLAS thread variable but
    ``env_vars`` (importing narxlm set one here), and a RuntimeWarning is an
    error there as it is here."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=os.path.dirname(os.path.dirname(narxlm.__file__)),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in exits, proc.stderr
    return proc.stdout
