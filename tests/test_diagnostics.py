import numpy as np
import pytest

from narxlm.diagnostics import (
    MAX_LAG,
    DiagnosticsReport,
    VerdictThresholds,
    acceptance_verdict,
    confidence_bound,
    diagnose,
    error_autocorrelation,
    input_error_crosscorrelation,
    max_divergence,
    regression_r,
)
from narxlm.errors import UndefinedStatisticError, ValidationError


class TestRegressionR:
    def test_perfect(self):
        x = np.linspace(1, 10, 50)
        assert regression_r(x, x) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.linspace(1, 10, 50)
        assert regression_r(-x, x) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            o = rng.normal(size=30)
            t = rng.normal(size=30)
            r0 = regression_r(o, t)
            a, b = rng.uniform(0.1, 5), rng.normal()
            assert regression_r(a * o + b, a * t + b) == pytest.approx(r0, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedStatisticError):
            regression_r(np.ones(10), np.arange(10.0))

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = regression_r(rng.normal(size=20), rng.normal(size=20))
            assert -1.0 <= r <= 1.0

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_overflowing_variance(self, scale):
        # from 1e155 on each sum of squares overflows
        x = np.linspace(-1.0, 1.0, 50) * scale
        with np.errstate(over="ignore"), \
                pytest.raises(UndefinedStatisticError, match="^variance overflows: R undefined$"):
            regression_r(x, x[::-1])

    def test_overflowing_product_of_variances(self):
        # at 1e100 each sum of squares (about 1.7e201) is finite, their product is not
        x = np.linspace(-1.0, 1.0, 50) * 1e100
        assert regression_r(x, x[::-1]) == -1.0
        assert regression_r(x, x) == 1.0
        assert regression_r(x, np.linspace(-1.0, 1.0, 50) ** 3 * 1e100) == pytest.approx(
            regression_r(x / 1e100, np.linspace(-1.0, 1.0, 50) ** 3), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-80, 1e-100])
    def test_underflowing_product_of_variances(self, scale):
        # at 1e-100 each sum of squares (about 1.7e-199) is non-zero, their product
        # rounds to 0; at 1e-80 it is subnormal and its root lost bits (R read -1.0000003)
        x = np.linspace(-1.0, 1.0, 50) * scale
        assert regression_r(x, x[::-1]) == -1.0
        assert regression_r(x, x) == 1.0

    def test_zero_variance_message(self):
        with pytest.raises(UndefinedStatisticError, match="^zero variance: R undefined$"):
            regression_r(np.arange(10.0), np.ones(10))


class TestMaxDivergence:
    def test_zero_on_equal(self):
        x = np.array([20.0, 21.0])
        assert max_divergence(x, x) == 0.0

    def test_hand_example(self):
        assert max_divergence([21.0], [20.0]) == pytest.approx(5.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        o = 20 + rng.normal(size=30)
        t = 20 + rng.normal(size=30)
        base = max_divergence(o, t)
        for c in (0.1, 3.0, 1000.0):
            assert max_divergence(c * o, c * t) == pytest.approx(base)

    def test_zero_target_guard(self):
        with pytest.raises(UndefinedStatisticError):
            max_divergence([1.0, 2.0], [1.0, 0.0])

    @pytest.mark.parametrize("outputs, targets", [
        ([1.0, 2.0], [1.0, 2.0, 3.0]), ([[1.0, 2.0]], [1.0, 2.0]), ([], []),
    ], ids=["lengths", "shapes", "empty"])
    def test_unequal_or_empty_rejected(self, outputs, targets):
        with pytest.raises(ValidationError,
                           match="^outputs and targets must be equal-length, non-empty$"):
            max_divergence(outputs, targets)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(3)
        rho, _ = error_autocorrelation(rng.normal(size=200), 20)
        assert rho[0] == 1.0

    def test_periodic_signal(self):
        e = np.sin(2 * np.pi * np.arange(400) / 4.0)
        rho, bound = error_autocorrelation(e, 8)
        assert abs(rho[4]) > 0.9
        assert abs(rho[4]) > bound

    def test_white_noise_calibration(self):
        inside = total = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            rho, bound = error_autocorrelation(rng.normal(size=500), 20)
            inside += int(np.sum(np.abs(rho[1:]) <= bound))
            total += 20
        assert inside / total >= 0.93

    def test_constant_series(self):
        with pytest.raises(UndefinedStatisticError):
            error_autocorrelation(np.ones(100), 5)

    def test_values_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho, _ = error_autocorrelation(rng.normal(size=100), 10)
            assert np.all(np.abs(rho) <= 1.0 + 1e-12)


class TestCrossCorrelation:
    def test_self_correlation_at_lag_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        lags, rho, _ = input_error_crosscorrelation(x, x, 10)
        assert rho[list(lags).index(0)] == pytest.approx(1.0)

    def test_independent_series_calibration(self):
        inside = total = 0
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=500)
            e = rng.normal(size=500)
            lags, rho, bound = input_error_crosscorrelation(x, e, 10)
            inside += int(np.sum(np.abs(rho) <= bound))
            total += len(lags)
        assert inside / total >= 0.93

    def test_bound_matches_observed_interval(self):
        # back-solved sample count for a band half-width of 0.018
        assert confidence_bound(11900) == pytest.approx(0.018, abs=0.001)

    def test_values_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            _, rho, _ = input_error_crosscorrelation(
                rng.normal(size=80), rng.normal(size=80), 10)
            assert np.all(np.abs(rho) <= 1.0 + 1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedStatisticError):
            input_error_crosscorrelation(np.ones(50), np.arange(50.0), 5)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            input_error_crosscorrelation(np.ones(50), np.ones(40), 5)


def naive_autocorrelation(errors, max_lag):
    """Reference: one dot product per lag."""
    e = errors - errors.mean()
    n = e.size
    return np.array([1.0] + [(e[lag:] @ e[:n - lag]) / (e @ e)
                             for lag in range(1, max_lag + 1)])


def naive_crosscorrelation(x, errors, max_lag):
    """Reference: one dot product per lag, error(k) against input(k - L)."""
    xc = x - x.mean()
    ec = errors - errors.mean()
    n = ec.size
    scale = np.sqrt(xc @ xc) * np.sqrt(ec @ ec)
    rho = [(ec[lag:] @ xc[:n - lag] if lag >= 0 else ec[:n + lag] @ xc[-lag:]) / scale
           for lag in range(-max_lag, max_lag + 1)]
    return np.array(rho)


class TestCorrelationReference:
    @pytest.mark.parametrize("max_lag", [1, 7, 20])
    @pytest.mark.parametrize("n", ["max_lag+1", 60, 5000])
    def test_match_per_lag_loops(self, n, max_lag):
        n = max_lag + 1 if n == "max_lag+1" else n
        rng = np.random.default_rng(1000 * n + max_lag)
        for _ in range(5):
            e = rng.normal(size=n)
            x = 3.0 * rng.normal(size=n) + 0.5 * e + 2.0
            rho, bound = error_autocorrelation(e, max_lag)
            assert rho.shape == (max_lag + 1,)
            assert np.max(np.abs(rho - naive_autocorrelation(e, max_lag))) < 1e-12
            assert bound == confidence_bound(n)
            lags, rho, bound = input_error_crosscorrelation(x, e, max_lag)
            assert np.array_equal(lags, np.arange(-max_lag, max_lag + 1))
            assert np.max(np.abs(rho - naive_crosscorrelation(x, e, max_lag))) < 1e-12
            assert bound == confidence_bound(n)

    def test_diagnose_matches_per_channel_calls(self):
        rng = np.random.default_rng(12)
        n = 60
        targets = 20.0 + rng.normal(size=n)
        outputs = targets + 0.1 * rng.normal(size=n)
        errors = rng.normal(size=n)
        exo = {ch: rng.normal(size=n) for ch in ("open", "high", "low", "volume")}
        report = diagnose(outputs, targets, errors, exo)
        assert list(report.xcorr) == list(exo)
        for ch, series in exo.items():
            lags, rho, bound = input_error_crosscorrelation(series, errors, 20)
            assert np.array_equal(report.xcorr[ch][0], lags)
            assert np.max(np.abs(report.xcorr[ch][1] - rho)) < 1e-12
            assert report.xcorr_bound == bound
        assert diagnose(outputs, targets, errors, {}).xcorr == {}

    def test_diagnose_rejects_bad_channel(self):
        rng = np.random.default_rng(13)
        targets = 20.0 + rng.normal(size=40)
        errors = rng.normal(size=40)
        with pytest.raises(ValidationError):
            diagnose(targets, targets, errors, {"open": rng.normal(size=39)})
        with pytest.raises(UndefinedStatisticError):
            diagnose(targets, targets, errors,
                     {"open": rng.normal(size=40), "high": np.ones(40)})

    def test_diagnose_rejects_an_empty_residual(self):
        # the MSE of no errors is not taken, so no 0 / 0 warns first
        with pytest.raises(ValidationError):
            diagnose([], [], [], {})

    def test_diagnose_rejects_an_overflowing_mse(self):
        rng = np.random.default_rng(14)
        targets = 20.0 + rng.normal(size=40)
        errors = rng.normal(size=40)
        errors[-1] = 1e200
        with np.errstate(over="ignore"), \
                pytest.raises(UndefinedStatisticError,
                              match=r"^MSE overflows: inf over 40 normalized errors$"):
            diagnose(targets, targets + errors, errors, {"open": rng.normal(size=40)})


def _reference_lagged_products(e, x, max_lag):
    ep = np.zeros(e.size + 2 * max_lag)
    ep[max_lag:max_lag + e.size] = e
    step = ep.itemsize
    windows = np.ndarray((2 * max_lag + 1, e.size), dtype=ep.dtype, buffer=ep,
                         strides=(step, step))
    return x @ windows.T


def _reference_autocorrelation(errors, max_lag):
    errors = np.asarray(errors, dtype=float)
    n = errors.size
    if max_lag < 1 or n <= max_lag:
        raise ValidationError("need series longer than max_lag >= 1")
    e = errors - errors.mean()
    denom = float(e @ e)
    if denom == 0.0:
        raise UndefinedStatisticError("constant error series: autocorrelation undefined")
    rho = _reference_lagged_products(e, e, max_lag)[max_lag:] / denom
    rho[0] = 1.0
    return rho, confidence_bound(n)


def _reference_crosscorrelations(channels, errors, max_lag):
    e = np.asarray(errors, dtype=float)
    X = np.empty((len(channels), e.size))
    for row, x in zip(X, channels):
        x = np.asarray(x, dtype=float)
        if x.shape != e.shape:
            raise ValidationError("channel and errors must be equal length")
        row[:] = x
    n = e.size
    if max_lag < 1 or n <= max_lag:
        raise ValidationError("need series longer than max_lag >= 1")
    xc = X - X.mean(axis=1, keepdims=True)
    ec = e - e.mean()
    sx = np.sqrt(np.einsum("ij,ij->i", xc, xc))
    se = float(np.sqrt(ec @ ec))
    if np.any(sx == 0.0) or se == 0.0:
        raise UndefinedStatisticError("zero variance: cross-correlation undefined")
    lags = np.arange(-max_lag, max_lag + 1)
    rho = _reference_lagged_products(ec, xc, max_lag) / (sx[:, None] * se)
    return lags, rho, confidence_bound(n)


def reference_diagnose(outputs, targets, errors, channels, thresholds=VerdictThresholds()):
    """diagnose as it was before the one-pass correlation kernel: the residual
    centred once for the autocorrelation and again for the cross-correlations,
    means by ``np.mean``.  R and the divergence are computed inline as
    regression_r and max_divergence did, without their input checks."""
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mse = float(np.mean(errors ** 2))
    o = outputs - outputs.mean()
    t = targets - targets.mean()
    denom = np.sqrt((o @ o) * (t @ t))
    if denom == 0.0:
        raise UndefinedStatisticError("zero variance: R undefined")
    r = float((o @ t) / denom)
    div = float(np.max(np.abs(outputs - targets) / np.abs(targets)) * 100.0)
    lag = min(MAX_LAG, errors.size - 1)
    ac, ac_bound = _reference_autocorrelation(errors, lag)
    lags, rho, xc_bound = _reference_crosscorrelations(list(channels.values()), errors, lag)
    accepted, reasons = acceptance_verdict(r, div, mse, thresholds)
    return DiagnosticsReport(
        mse=mse, msereg=None, r_value=r, max_divergence_pct=div,
        autocorr=ac, autocorr_bound=ac_bound,
        xcorr={ch: (lags, row) for ch, row in zip(channels, rho)}, xcorr_bound=xc_bound,
        accepted=accepted, reasons=reasons)


def _raised(fn, *args):
    with pytest.raises((ValidationError, UndefinedStatisticError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestDiagnoseReference:
    @pytest.mark.parametrize("n", [2, 3, 21, 22, 60, 250, 5000])
    @pytest.mark.parametrize("n_channels", range(6))
    def test_bit_identical(self, n, n_channels):
        rng = np.random.default_rng(100 * n + n_channels)
        targets = 20.0 + rng.normal(size=n)
        outputs = targets + 0.05 * rng.normal(size=n)
        errors = (outputs - targets) / 3.0 + 0.01 * rng.normal(size=n)
        channels = {f"ch{k}": 2.0 * rng.normal(size=n) + k for k in range(n_channels)}
        got = diagnose(outputs, targets, errors, channels)
        want = reference_diagnose(outputs, targets, errors, channels)
        for name in ("mse", "msereg", "r_value", "max_divergence_pct", "autocorr",
                     "autocorr_bound", "xcorr_bound", "accepted", "reasons"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert list(got.xcorr) == list(want.xcorr)
        for ch, (lags, rho) in got.xcorr.items():
            assert np.array_equal(lags, want.xcorr[ch][0])
            assert np.array_equal(rho, want.xcorr[ch][1])

    @pytest.mark.parametrize("faults", [
        {"residual"}, {"constant"}, {"length"}, {"short"},
        {"residual", "constant"}, {"residual", "length"}, {"constant", "length"},
        {"residual", "constant", "length"}, {"short", "length"}, {"short", "residual"},
    ], ids=lambda f: "+".join(sorted(f)))
    @pytest.mark.parametrize("length_first", [False, True])
    def test_same_exception(self, faults, length_first):
        n = 1 if "short" in faults else 40  # the residual's length
        rng = np.random.default_rng(14)
        targets = 20.0 + np.arange(40.0)
        errors = np.full(n, 0.25) if "residual" in faults else rng.normal(size=n)
        constant = np.ones(n) if "constant" in faults else rng.normal(size=n)
        other = rng.normal(size=n + 1 if "length" in faults else n)
        channels = ({"open": other, "high": constant} if length_first
                    else {"open": constant, "high": other})
        args = (targets + 0.1, targets, errors, channels)
        assert _raised(diagnose, *args) == _raised(reference_diagnose, *args)

    @pytest.mark.parametrize("x, e, max_lag", [
        (np.ones(30), np.arange(30.0), 5),         # constant channel
        (np.arange(30.0), np.ones(30), 5),         # constant residual
        (np.ones(30), np.ones(30), 5),
        (np.arange(29.0), np.ones(30), 5),         # wrong length before the constant residual
        (np.arange(3.0), np.arange(4.0), 5),       # wrong length before the short series
        (np.arange(4.0), np.arange(4.0), 5),       # short series
        (np.arange(30.0), np.arange(30.0) ** 2, 0),
    ])
    def test_crosscorrelation_exceptions(self, x, e, max_lag):
        assert (_raised(input_error_crosscorrelation, x, e, max_lag)
                == _raised(_reference_crosscorrelations, [x], e, max_lag))

    @pytest.mark.parametrize("e, max_lag", [
        (np.ones(30), 5), (np.ones(3), 5), (np.arange(4.0), 5), (np.arange(30.0), 0),
    ])
    def test_autocorrelation_exceptions(self, e, max_lag):
        assert (_raised(error_autocorrelation, e, max_lag)
                == _raised(_reference_autocorrelation, e, max_lag))


class TestVerdict:
    def test_paper_scale_numbers_accept(self):
        ok, reasons = acceptance_verdict(0.998, 1.122, 0.024288,
                                         VerdictThresholds(mse_max=0.1))
        assert ok and not reasons

    def test_divergence_rule(self):
        ok, reasons = acceptance_verdict(0.999, 10.5, 0.001)
        assert not ok
        assert any("10" in r for r in reasons)

    def test_boundary_inclusive(self):
        ok, _ = acceptance_verdict(0.99, 10.0, 0.0)
        assert ok

    def test_all_violations_listed(self):
        ok, reasons = acceptance_verdict(0.5, 50.0, 9.0,
                                         VerdictThresholds(mse_max=1.0))
        assert not ok and len(reasons) == 3

    @pytest.mark.parametrize("bad", [
        {"r_min": np.nan}, {"divergence_max_pct": np.nan}, {"mse_max": np.nan},
        {"divergence_max_pct": -1.0}, {"mse_max": -1e-9}, {"mse_max": -np.inf},
    ])
    def test_thresholds_reject_nan_and_negative_bounds(self, bad):
        with pytest.raises(ValidationError):
            VerdictThresholds(**bad)

    def test_thresholds_boundaries_accepted(self):
        th = VerdictThresholds(r_min=-np.inf, divergence_max_pct=0.0, mse_max=0.0)
        assert acceptance_verdict(1.0, 0.0, 0.0, th) == (True, [])

    @pytest.mark.parametrize("metrics, reason", [
        ((np.nan, 1.0, 0.0), "R nan < 0.99"),
        ((0.999, np.nan, 0.0), "max divergence nan% > 10.0%"),
        ((0.999, 1.0, np.nan), "MSE nan > inf"),
    ], ids=["r", "divergence", "mse"])
    def test_nan_metric_rejected(self, metrics, reason):
        assert acceptance_verdict(*metrics) == (False, [reason])

    def test_nan_output_rejected(self):
        targets = 20.0 + np.sin(np.arange(30.0))
        outputs = targets + 0.01
        outputs[7] = np.nan
        report = diagnose(outputs, targets, np.cos(np.arange(30.0)), {})
        assert np.isnan(report.r_value) and not report.accepted
        assert report.reasons == ["R nan < 0.99", "max divergence nan% > 10.0%"]

    def test_monotone(self):
        rng = np.random.default_rng(7)
        th = VerdictThresholds(mse_max=1.0)
        for _ in range(100):
            r = rng.uniform(0.9, 1.0)
            d = rng.uniform(0, 20)
            m = rng.uniform(0, 2)
            ok, _ = acceptance_verdict(r, d, m, th)
            better, _ = acceptance_verdict(min(r + 0.005, 1.0),
                                           max(d - 1, 0.0),
                                           max(m - 0.1, 0.0), th)
            if ok:
                assert better
