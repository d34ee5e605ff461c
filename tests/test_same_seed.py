"""Same-seed runs in separate interpreters write byte-identical files.

Each run is a fresh interpreter on the package in src (``conftest.run_child``),
so narxlm's own one-thread BLAS default applies there and a RuntimeWarning
fails the run.  Every output but ``manifest.json`` is compared.
"""

import pytest

from conftest import outputs, run_child

WRITE_SERIES = ("import sys\n"
                "from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame\n"
                "frame, _ = synthetic_ohlcv_frame(220, seed=99, noise_std=0.02)\n"
                "frame_to_csv(frame, sys.argv[1])")


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """The series written once under narxlm's default, once on two BLAS threads."""
    root = tmp_path_factory.mktemp("series")
    run_child("-c", WRITE_SERIES, root / "default.csv")
    run_child("-c", WRITE_SERIES, root / "blas2.csv", OPENBLAS_NUM_THREADS="2")
    return root


@pytest.fixture(scope="module")
def runs(series, tmp_path_factory):
    """Two `train` processes with one seed, then `simulate` and `eval` from
    each model, each in its own process."""
    root = tmp_path_factory.mktemp("runs")
    csv = series / "default.csv"
    for name in ("a", "b"):
        out = root / name
        model = out / "train" / "model.json"
        run_child("-m", "narxlm", "train", "--csv", csv, "--out", out / "train",
                  "--neurons", "4", "--epochs", "30", "--restarts", "2", "--seed", "7")
        run_child("-m", "narxlm", "simulate", "--csv", csv, "--model", model,
                  "--out", out / "simulate", "--horizon", "50")
        # eval exits 7 when the verdict rejects the model
        run_child("-m", "narxlm", "eval", "--csv", csv, "--model", model,
                  "--out", out / "eval", exits=(0, 7))
    return root


def test_series_ignores_blas_threads(series):
    assert (series / "default.csv").read_bytes() == (series / "blas2.csv").read_bytes()


@pytest.mark.parametrize("command", ["train", "simulate", "eval"])
def test_one_seed_two_processes(runs, command):
    first = outputs(runs / "a" / command)
    assert first
    assert outputs(runs / "b" / command) == first
