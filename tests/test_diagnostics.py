import numpy as np
import pytest

from narxlm.diagnostics import (
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
