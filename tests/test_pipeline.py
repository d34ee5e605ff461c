import re

import numpy as np
import pytest

from narxlm import sweep
from narxlm.data import (NormalizationSpec, apply_normalization, fit_normalization,
                          prepare_delayed, split_indices)
from narxlm.diagnostics import diagnose
from narxlm.errors import InsufficientDataError, ValidationError
from narxlm.network import NarxConfig, NarxNetwork, _blocks, init_weights
from narxlm.pipeline import evaluate_open, prepare, simulate, simulate_diagnostics
from narxlm.synth import synthetic_ohlcv_frame
from narxlm.training import TrainParams

EXO = ("open", "high", "low", "volume")


def test_prepare_applies_a_given_spec_without_refitting():
    frame, _ = synthetic_ohlcv_frame(160, seed=1234, noise_std=0.02)
    # fitted on every row, so it differs from the training-rows fit
    spec = fit_normalization(frame, EXO + ("close",))
    prep = prepare(frame, (0, 2), (1, 3), EXO, "close", norm_spec=spec)
    assert prep.norm_spec is spec
    assert prepare(frame, (0, 2), (1, 3), EXO, "close").norm_spec != spec

    ds = prepare_delayed(apply_normalization(frame, spec), (0, 2), (1, 3), EXO, "close")
    for name in ("X", "Y_hist", "T"):
        assert np.array_equal(getattr(prep.dataset, name), getattr(ds, name)), name
    assert (prep.dataset.d_u, prep.dataset.d_y, prep.dataset.first_usable_index) == \
        (ds.d_u, ds.d_y, ds.first_usable_index)
    for got, want in zip(prep.dataset.splits, split_indices(ds.n_samples), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("channels, exo, target, missing", [
    (("close",), EXO, "close", "open"),
    (("close", "open"), EXO, "close", "high"),
    (("close", "open"), ("open",), "adj_close", "adj_close"),
])
def test_prepare_rejects_a_spec_without_a_channel(channels, exo, target, missing):
    # without the check, the taps of the missing channel would hold raw prices
    frame, _ = synthetic_ohlcv_frame(60, seed=1234, noise_std=0.02)
    spec = NormalizationSpec({ch: (19.0, 23.0) for ch in channels})
    with pytest.raises(ValidationError,
                       match=f"normalization spec has no range for channel '{missing}'$"):
        prepare(frame, (0, 1), (1,), exo, target, norm_spec=spec)


@pytest.mark.parametrize("d_u, d_y", [((), (1,)), ((0,), ())])
def test_prepare_rejects_an_empty_lag_set(d_u, d_y):
    frame, _ = synthetic_ohlcv_frame(40, seed=1234, noise_std=0.02)
    with pytest.raises(ValidationError, match="lag sets must be non-empty"):
        prepare(frame, d_u, d_y)


@pytest.mark.parametrize("rows, d_y, got", [(3, (1,), 2), (4, (1, 2), 2), (2, (1,), 1)])
def test_prepare_needs_three_samples(rows, d_y, got):
    frame, _ = synthetic_ohlcv_frame(40, seed=1234, noise_std=0.02)
    with pytest.raises(InsufficientDataError,
                       match=f"^need at least 3 samples to split, got {got}$"):
        prepare(frame.slice(0, rows), (0, 1), d_y)
    assert prepare(frame.slice(0, rows + 3 - got), (0, 1), d_y).dataset.n_samples == 3


@pytest.mark.parametrize("rows, d_y", [(5, (10,)), (10, (10,)), (1, (1,)), (3, (1, 3))])
def test_prepare_names_the_rows_and_the_lag(rows, d_y):
    # a frame with no more rows than its largest lag gives no sample at all
    frame, _ = synthetic_ohlcv_frame(40, seed=1234, noise_std=0.02)
    lag = d_y[-1]
    message = f"frame has {rows} rows but max lag {lag} needs at least {lag + 1}"
    with pytest.raises(InsufficientDataError, match=f"^{re.escape(message)}$"):
        prepare(frame.slice(0, rows), (0,), d_y)


def test_prepared_splits_are_the_datasets():
    frame, _ = synthetic_ohlcv_frame(60, seed=1234, noise_std=0.02)
    prep = prepare(frame, (0, 1), (1,))
    for got, want in zip(prep.splits, prep.dataset.splits, strict=True):
        assert np.array_equal(got, want)
    # the normalization is fitted on the rows up to the last training target
    fit_rows = prep.dataset.first_usable_index + len(prep.dataset.splits[0])
    assert prep.norm_spec == fit_normalization(frame, sorted(EXO + ("close",)), fit_rows)


BAD_BLOCKS = {
    "empty": [],
    "negative": np.arange(-50, 0),
    "past-the-end": lambda n: np.arange(n - 5, n + 1),
    "two-dimensional": [[0, 1], [2, 3]],
    "boolean": lambda n: np.ones(n, dtype=bool),
    "float": [0.0, 1.0],
}


@pytest.mark.parametrize("kind", BAD_BLOCKS)
def test_evaluate_open_rejects_a_bad_block(kind):
    # a negative index scored the right rows' MSE but read the cross-
    # correlations' exogenous rows before the first usable one
    frame, _ = synthetic_ohlcv_frame(120, seed=29, noise_std=0.01)
    prep = prepare(frame, (0, 1), (1,))
    net = init_weights(NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=4), 3)
    n = prep.dataset.n_samples
    idx = BAD_BLOCKS[kind](n) if callable(BAD_BLOCKS[kind]) else BAD_BLOCKS[kind]
    with pytest.raises(ValidationError,
                       match=re.escape(f"a block must be non-empty integer sample indices"
                                       f" in [0, {n})")):
        evaluate_open(net, prep, idx=idx)
    # the first and the last sample alone are blocks
    assert evaluate_open(net, prep, idx=[0, n - 1]).mse >= 0.0


@pytest.mark.parametrize("d_u, d_y, message", [
    ((0, 0, 1), (1,), "input lags repeat a lag: 0,0,1"),
    ((0, 1), (1, 1), "feedback lags repeat a lag: 1,1"),
    ((2, 0, 2), (3, 1, 3), "input lags repeat a lag: 0,2,2"),
])
def test_repeated_lags_rejected(d_u, d_y, message):
    frame, _ = synthetic_ohlcv_frame(40, seed=1234, noise_std=0.02)
    for build in (lambda: prepare(frame, d_u, d_y),
                  lambda: prepare_delayed(frame, d_u, d_y),
                  lambda: NarxConfig(d_u=d_u, d_y=d_y, n_hidden=2, n_exo=4)):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()


def _assert_reports_equal(got, want, fields, tol=0.0):
    for name in fields:
        assert np.allclose(getattr(got, name), getattr(want, name), rtol=0, atol=tol), name
    assert list(got.xcorr) == list(want.xcorr)
    for ch, (lags, rho) in got.xcorr.items():
        assert np.array_equal(lags, want.xcorr[ch][0])
        assert np.allclose(rho, want.xcorr[ch][1], rtol=0, atol=tol), ch


@pytest.mark.parametrize("d_u, d_y", [((0, 1), (1,)), ((1, 3), (1, 2, 4))])
def test_closed_loop_residual_is_the_normalized_rollout(d_u, d_y):
    # simulate returns normalized series, and their difference is the residual
    frame, _ = synthetic_ohlcv_frame(300, seed=29, noise_std=0.01)
    prep = prepare(frame, d_u, d_y)
    net = init_weights(NarxConfig(d_u=d_u, d_y=d_y, n_hidden=6, n_exo=4), 3)
    start, horizon = 200, 60
    _, preds, targs = simulate(net, prep, start, horizon)
    assert np.array_equal(targs, prep.frame.close[start:start + horizon])
    got = simulate_diagnostics(preds, targs, prep, start)
    exo = {ch: prep.frame.channel(ch)[start:start + horizon] for ch in EXO}
    want = diagnose(prep.norm_spec.invert_values(preds, "close"),
                    prep.norm_spec.invert_values(targs, "close"), preds - targs, exo)
    _assert_reports_equal(got, want, ("mse", "r_value", "max_divergence_pct", "autocorr",
                                      "autocorr_bound", "xcorr_bound"))
    assert got.msereg is None and got.accepted == want.accepted


@pytest.mark.parametrize("d_u, d_y", [((0, 1), (1,)), ((1, 3), (1, 2, 4))])
def test_closed_loop_without_feedback_is_the_open_loop(d_u, d_y):
    # with W_yh = 0 the fed-back outputs are never read, so a rollout over
    # rows [s, s + H) predicts what the open loop predicts on those rows
    frame, _ = synthetic_ohlcv_frame(300, seed=29, noise_std=0.01)
    prep = prepare(frame, d_u, d_y)
    net = init_weights(NarxConfig(d_u=d_u, d_y=d_y, n_hidden=6, n_exo=4), 3)
    theta = net.theta.copy()
    theta[_blocks(net.config)[1]] = 0.0  # W_yh
    net = NarxNetwork(net.config, theta)
    first = prep.dataset.first_usable_index
    for start, horizon in ((first, 40), (200, 60), (len(frame) - 25, 25)):
        _, preds, targs = simulate(net, prep, start, horizon)
        closed = simulate_diagnostics(preds, targs, prep, start)
        opened = evaluate_open(net, prep, idx=np.arange(start - first, start - first + horizon))
        _assert_reports_equal(closed, opened, ("mse", "r_value", "max_divergence_pct",
                                               "autocorr", "autocorr_bound", "xcorr_bound",
                                               "accepted"), tol=1e-12)
        assert closed.msereg is opened.msereg is None


# (exo channels, target, the message the CLI prints for them)
BAD_CHANNELS = [
    (("open", "price"), "close",
     "unknown channel 'price'; valid channels: open, high, low, volume, close, adj_close"),
    (EXO, "Close", "unknown channel 'Close'"),
    (("open", "close"), "close", "target channel 'close' cannot be an exogenous channel"),
    (("open", "open"), "close", "exogenous channels repeat a name: open,open"),
    ((), "close", "need at least one exogenous channel"),
]


@pytest.mark.parametrize("exo, target, message", BAD_CHANNELS)
def test_prepare_checks_the_channels(exo, target, message):
    frame, _ = synthetic_ohlcv_frame(40, seed=1234, noise_std=0.02)
    with pytest.raises(ValidationError) as prep_err:
        prepare(frame, (0, 1), (1,), exo, target)
    with pytest.raises(ValidationError) as delayed_err:
        prepare_delayed(frame, (0, 1), (1,), exo, target)
    for err in (prep_err, delayed_err):
        assert message in str(err.value)


@pytest.mark.parametrize("exo, target, message", BAD_CHANNELS)
def test_sweep_checks_the_channels_before_any_point(exo, target, message, monkeypatch):
    def no_point(packed):
        raise AssertionError("a point ran")

    monkeypatch.setattr(sweep, "_sweep_point", no_point)
    frame, _ = synthetic_ohlcv_frame(40, seed=1234, noise_std=0.02)
    grid = sweep.SweepGrid(((0, 1),), ((1,),), (2,), TrainParams(epochs=1, restarts=1))
    with pytest.raises(ValidationError) as err:
        sweep.run_sweep(grid, frame, exo, target)
    assert message in str(err.value)


def test_simulate_rejects_a_start_or_horizon_outside_the_frame():
    frame, _ = synthetic_ohlcv_frame(100, seed=29, noise_std=0.01)
    prep = prepare(frame, (0, 1), (1, 3))  # first usable row 3
    net = init_weights(NarxConfig(d_u=(0, 1), d_y=(1, 3), n_hidden=2, n_exo=4), 3)
    with pytest.raises(InsufficientDataError,
                       match="^start_row leaves too little priming history$"):
        simulate(net, prep, 2, 10)
    with pytest.raises(InsufficientDataError,
                       match="^horizon 11 from row 90 exceeds frame length 100$"):
        simulate(net, prep, 90, 11)
    # the ends themselves are allowed
    assert len(simulate(net, prep, 3, 97)[0]) == 97
    assert len(simulate(net, prep, 90, 10)[0]) == 10
