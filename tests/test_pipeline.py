import numpy as np
import pytest

from narxlm.data import apply_normalization, fit_normalization, prepare_delayed, split_indices
from narxlm.errors import ValidationError
from narxlm.pipeline import prepare
from narxlm.synth import synthetic_ohlcv_frame

EXO = ("open", "high", "low", "volume")


def test_prepare_applies_a_given_spec_without_refitting():
    frame, _ = synthetic_ohlcv_frame(160, seed=1234, noise_std=0.02)
    # fitted on every row, so it differs from the training-rows fit
    spec = fit_normalization(frame, EXO + ("close",))
    prep = prepare(frame, (0, 2), (1, 3), EXO, "close", norm_spec=spec)
    assert prep.norm_spec is spec
    assert prepare(frame, (0, 2), (1, 3), EXO, "close").norm_spec != spec

    ds = prepare_delayed(apply_normalization(frame, spec), (0, 2), (1, 3), EXO, "close")
    for name in ("X", "Y_hist", "T", "timesteps"):
        assert np.array_equal(getattr(prep.dataset, name), getattr(ds, name)), name
    assert (prep.dataset.d_u, prep.dataset.d_y, prep.dataset.first_usable_index) == \
        (ds.d_u, ds.d_y, ds.first_usable_index)
    for got, want in zip(prep.splits, split_indices(ds.n_samples), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d_u, d_y", [((), (1,)), ((0,), ())])
def test_prepare_rejects_an_empty_lag_set(d_u, d_y):
    frame, _ = synthetic_ohlcv_frame(40, seed=1234, noise_std=0.02)
    with pytest.raises(ValidationError, match="lag sets must be non-empty"):
        prepare(frame, d_u, d_y)
