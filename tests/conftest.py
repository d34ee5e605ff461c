import numpy as np
import pytest

from narxlm.data import TimeSeriesFrame

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
