import dataclasses
import re
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narxlm import training
from narxlm.data import DelayedDataset, split_indices
from narxlm.errors import DivergedError, ValidationError
from narxlm.network import (
    NarxConfig,
    NarxNetwork,
    forward_open,
    init_weights,
    jacobian,
)
from narxlm.pipeline import evaluate_open, fit, prepare, simulate
from narxlm.synth import synthetic_ohlcv_frame
from narxlm.training import (
    EpochRecord,
    StepFailure,
    TrainParams,
    lm_step,
    msereg,
    normal_equations,
    train,
    train_with_restarts,
)

from conftest import make_supervised, run_child, teacher_dataset


class TestMsereg:
    def test_xi_one_is_plain_mse(self):
        assert msereg([1.0, 2.0], [100.0, 200.0], 1.0,
                      penalized=np.ones(2, bool)) == pytest.approx(2.5)

    def test_xi_zero_with_zero_weights(self):
        assert msereg([3.0, 4.0], [0.0, 0.0], 0.0, penalized=np.ones(2, bool)) == 0.0

    def test_hand_evaluated_blend(self):
        # 0.5 * mean([1,1]) + 0.5 * mean([4]) = 0.5 + 2 = 2.5
        assert msereg([1.0, 1.0], [2.0], 0.5, penalized=np.ones(1, bool)) == pytest.approx(2.5)

    def test_bias_exclusion(self):
        weights = np.array([2.0, 3.0])
        penalized = np.array([True, False])
        # only the penalized weight enters MSW
        assert msereg([0.0], weights, 0.5, penalized=penalized) == pytest.approx(2.0)
        # with every weight penalized every weight enters MSW
        assert msereg([0.0], weights, 0.5, penalized=np.ones(2, bool)) == pytest.approx(0.5 * 6.5)

    def test_positional_mask_rejected(self):
        # a call written for the old positional bias mask, whose True marked
        # the weights left out, must not run with the meaning turned over
        with pytest.raises(TypeError):
            msereg([0.0], [2.0, 3.0], 0.5, np.array([False, True]))
        with pytest.raises(TypeError):
            normal_equations(np.eye(2), np.zeros(2), np.ones(2), 0.5, np.array([False, True]))

    def test_empty_inputs(self):
        with pytest.raises(ValidationError):
            msereg([], [1.0], 0.5, penalized=np.ones(1, bool))
        with pytest.raises(ValidationError):
            msereg([1.0], [], 0.5, penalized=np.ones(0, bool))


def _step(J, F, lam, weights=None, xi=1.0, penalized=None):
    """lm_step on the system normal_equations builds from J, F."""
    if penalized is None:
        penalized = np.ones(np.shape(J)[1], dtype=bool)
    A, b, _ = normal_equations(J, F, weights, xi, penalized=penalized)
    return lm_step(A, b, lam)


class TestLmStep:
    def test_identity_system(self):
        d = _step(np.eye(2), np.array([1.0, 0.0]), lam=0.0)
        assert np.allclose(d, [-1.0, 0.0], atol=1e-12)

    def test_large_damping_is_scaled_steepest_descent(self):
        rng = np.random.default_rng(0)
        J = rng.normal(size=(6, 3))
        F = rng.normal(size=6)
        lam = 1e12
        d = _step(J, F, lam)
        assert np.allclose(d, -(J.T @ F) / lam, rtol=1e-6)

    def test_against_dense_solver(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            J = rng.normal(size=(5, 3))
            F = rng.normal(size=5)
            lam = float(rng.uniform(0.01, 10))
            d = _step(J, F, lam)
            expected = np.linalg.solve(J.T @ J + lam * np.eye(3), -(J.T @ F))
            assert np.allclose(d, expected, atol=1e-10, rtol=1e-10)

    def test_reduction_with_xi_one(self):
        # the assembled system must be exactly (J'J + lam I) d = -J'F
        rng = np.random.default_rng(2)
        J = rng.normal(size=(8, 4))
        F = rng.normal(size=8)
        lam = 0.37
        d = _step(J, F, lam, weights=rng.normal(size=4), xi=1.0)
        expected = np.linalg.solve(J.T @ J + lam * np.eye(4), -(J.T @ F))
        assert np.allclose(d, expected, atol=1e-12)

    def test_rank_deficient_signals_failure(self):
        J = np.array([[1.0, 0.0], [1.0, 0.0]])  # dead column -> zero pivot
        with pytest.raises(StepFailure):
            _step(J, np.array([1.0, 0.0]), lam=0.0)

    def test_regularized_step_optimizes_damped_model(self):
        # the step must be the exact minimizer of the quadratic model of
        # n*(xi*MSE + (1-xi)*MSW) + lam*|d|^2 built from J, F
        rng = np.random.default_rng(3)
        J = rng.normal(size=(10, 4))
        F = rng.normal(size=10)
        w = rng.normal(size=4)
        xi, lam = 0.8, 0.2
        n, p = J.shape
        d = _step(J, F, lam, weights=w, xi=xi)
        alpha = (1 - xi) * n / p
        A = xi * (J.T @ J) + alpha * np.eye(p) + lam * np.eye(p)
        b = -(xi * (J.T @ F) + alpha * w)
        assert np.allclose(A @ d, b, atol=1e-10)

    def test_damping_leaves_system_unchanged(self):
        # the epoch's system is damped afresh in every try
        rng = np.random.default_rng(4)
        J = rng.normal(size=(9, 3))
        A, b, _ = normal_equations(J, rng.normal(size=9), rng.normal(size=3),
                                   0.9, penalized=np.array([True, False, True]))
        kept = A.copy()
        first = lm_step(A, b, 0.5)
        lm_step(A, b, 7.0)
        assert np.array_equal(A, kept)
        assert np.array_equal(lm_step(A, b, 0.5), first)

    def test_non_finite_step_signals_failure(self):
        # the solve succeeds, but its step overflows to inf
        with pytest.raises(StepFailure, match="non-finite step"):
            lm_step(1e-300 * np.eye(3), np.full(3, 1e300), 1e-300)


def _msereg_gradient_fd(config, theta, ds, penalized, xi=1.0, h=1e-6):
    def objective(th):
        err = forward_open(NarxNetwork.from_flat(config, th), ds) - ds.T
        return msereg(err, th, xi, penalized=penalized)

    grad = np.empty_like(theta)
    for p in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[p] += h
        tm[p] -= h
        grad[p] = (objective(tp) - objective(tm)) / (2 * h)
    return grad


class TestGradient:
    def test_mse_gradient_matches_finite_differences(self):
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        net = init_weights(config, 77)
        ds = teacher_dataset(40, seed=9, n_hidden=2)
        J, F = jacobian(net, ds)
        analytic = (2.0 / ds.n_samples) * (J.T @ F)
        fd = _msereg_gradient_fd(config, net.theta, ds, np.ones(net.theta.size, bool))
        assert np.max(np.abs(analytic - fd)) / (1 + np.max(np.abs(fd))) < 1e-6

    def test_regularized_gradient_matches_finite_differences(self):
        # the gradient normal_equations reports (and train's min-grad test
        # reads) is that of msereg with the biases left out of MSW
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        net = init_weights(config, 77)
        ds = teacher_dataset(40, seed=9, n_hidden=2)
        theta, penalized, xi = net.theta, config.penalized, 0.9
        grad = normal_equations(*jacobian(net, ds), theta, xi, penalized=penalized)[2]
        fd = _msereg_gradient_fd(config, theta, ds, penalized, xi)
        assert np.max(np.abs(grad - fd)) / (1 + np.max(np.abs(fd))) < 1e-6
        # the weight penalty is large enough here for a wrong mask to show
        unmasked = _msereg_gradient_fd(config, theta, ds, np.ones(theta.size, bool), xi)
        assert np.max(np.abs(unmasked - fd)) > 1e-4


def linear_ar_dataset(n=200, seed=0, noise=0.0):
    """y(k) = 0.5 y(k-1) (+ noise), one exogenous channel that is ignored."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    y[0] = 1.0
    eps = rng.normal(0, noise, n) if noise else np.zeros(n)
    for k in range(1, n):
        y[k] = 0.5 * y[k - 1] + 0.3 * np.sin(k / 5.0) + eps[k]
    U = np.sin(np.arange(n) / 5.0)[:, None]
    return make_supervised(U, y, (0,), (1,))


class TestTrain:
    def test_goal_met_on_noise_free_system(self):
        ds = linear_ar_dataset()
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=2, n_exo=1)
        params = TrainParams(xi=1.0, goal=1e-5)
        report = train(init_weights(config, 1), ds, params)
        assert report.stop_reason == "goal-met"
        assert report.records[-1].train_objective <= 1e-5

    def test_accepted_objectives_decrease(self):
        ds = teacher_dataset(150, seed=5, noise_std=0.05)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        report = train(init_weights(config, 2), ds, TrainParams(xi=0.9, epochs=60))
        objs = [r.train_objective for r in report.records]
        assert all(b < a + 1e-15 for a, b in zip(objs, objs[1:]))

    def test_max_fail_stops_training(self):
        ds = teacher_dataset(120, seed=6, noise_std=0.2)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=8, n_exo=2)
        params = TrainParams(xi=1.0, goal=1e-12, min_grad=1e-12, max_fail=6)
        report = train(init_weights(config, 3), ds, params)
        if report.stop_reason == "max-fail":
            # exactly max_fail consecutive validation increases at the end
            vals = [r.val_mse for r in report.records]
            tail = vals[-(params.max_fail + 1):]
            best_before = min(vals[:len(vals) - params.max_fail])
            assert all(v >= best_before for v in tail[1:])
        assert report.stop_reason in {"max-fail", "epochs-exhausted",
                                      "min-grad", "mu-max"}

    def test_best_epoch_restoration(self):
        ds = teacher_dataset(120, seed=7, noise_std=0.2)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=6, n_exo=2)
        params = TrainParams(xi=1.0, goal=1e-12, min_grad=1e-12)
        report = train(init_weights(config, 4), ds, params)
        assert report.best_epoch <= len(report.records) - 1
        vals = [r.val_mse for r in report.records]
        assert report.best_epoch == int(np.argmin(vals))
        # restored network reproduces the recorded best validation MSE
        val_idx = ds.splits[1]
        sub_pred = forward_open(report.network, ds)[val_idx]
        got = float(np.mean((sub_pred - ds.T[val_idx]) ** 2))
        assert got == pytest.approx(vals[report.best_epoch], rel=1e-12)

    def test_no_finite_validation_error_keeps_final_network(self):
        # a NaN validation error never beats the best so far, so no epoch is
        # best: the report falls back to the last epoch and the final network
        ds = teacher_dataset(80, seed=8)
        T = ds.T.copy()
        T[ds.splits[1]] = np.nan
        ds = dataclasses.replace(ds, T=T)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        report = train(init_weights(config, 1), ds, TrainParams())
        assert report.stop_reason == "max-fail"
        assert len(report.records) == 6
        assert report.best_epoch == 5
        assert all(np.isnan(r.val_mse) for r in report.records)
        # the train-block error of the returned network is the last epoch's
        train_idx = ds.splits[0]
        got = float(np.mean((forward_open(report.network, ds)[train_idx] - T[train_idx]) ** 2))
        assert got == pytest.approx(report.records[-1].train_mse, rel=1e-12)
        assert got != pytest.approx(report.records[-2].train_mse, rel=1e-12)

    def test_min_grad_stops_training(self):
        ds = teacher_dataset(80, seed=8)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        report = train(init_weights(config, 1), ds, TrainParams(min_grad=1e9, goal=0.0))
        assert report.stop_reason == "min-grad"
        assert len(report.records) == 1
        assert report.records[0].grad_norm <= 1e9

    def test_mu_max_stops_training(self):
        # each failed try multiplies the damping by 1e12, so one rejected
        # step takes it past the cap and ends the run
        ds = teacher_dataset(80, seed=8)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        params = TrainParams(mu_inc=1e12, mu_max=1e6, goal=0.0, min_grad=0.0,
                             max_fail=1000)
        report = train(init_weights(config, 1), ds, params)
        assert report.stop_reason == "mu-max"
        assert len(report.records) == 27
        assert report.records[-1].mu > params.mu_max
        assert all(r.mu <= params.mu_max for r in report.records[:-1])

    def test_lambda_never_exceeds_cap_silently(self):
        ds = teacher_dataset(80, seed=8)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        params = TrainParams(xi=1.0, mu_max=10.0, epochs=200)
        report = train(init_weights(config, 5), ds, params)
        for r in report.records[:-1]:
            assert r.mu <= params.mu_max * params.mu_inc

    @pytest.mark.parametrize("mu", [1e-300, 1e-100])
    def test_rank_deficient_tiny_damping_never_raises(self, mu):
        # two equal exogenous columns make J'J singular, and at this damping
        # mu*I does not lift it: a singular solve, a non-finite step or a
        # step that does not lower the objective must each raise the damping
        rng = np.random.default_rng(0)
        u = rng.normal(size=200)
        y = np.tanh(0.8 * u + 0.1 * rng.normal(size=200))
        ds = make_supervised(np.column_stack([u, u]), y, (0,), (1,))
        assert np.array_equal(ds.X[:, 0], ds.X[:, 1])
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=4, n_exo=2)
        params = TrainParams(xi=1.0, mu=mu, epochs=30)
        for seed in range(20):
            report = train(init_weights(config, seed), ds, params)
            assert report.stop_reason in {"goal-met", "min-grad", "max-fail",
                                          "epochs-exhausted", "mu-max"}
            assert np.all(np.isfinite(report.network.theta))

    def test_non_finite_target_diverges(self):
        ds = teacher_dataset(50, seed=9)
        bad = DelayedDataset(
            X=ds.X, Y_hist=ds.Y_hist, T=ds.T.copy(), d_u=ds.d_u, d_y=ds.d_y,
            first_usable_index=ds.first_usable_index)
        bad.T[0] = np.inf
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=2, n_exo=2)
        with pytest.raises(DivergedError):
            train(init_weights(config, 0), bad, TrainParams(xi=1.0))


def reference_lm_step(J, F, lam, weights, xi, bias_mask):
    """The LM step with a Cholesky definiteness test before the solve."""
    A = xi * (J.T @ J)
    b = -xi * (J.T @ F)
    if xi < 1.0:
        mask = ~np.asarray(bias_mask)
        n_pen = int(mask.sum())
        if n_pen:
            alpha = (1.0 - xi) * J.shape[0] / n_pen
            A[np.flatnonzero(mask), np.flatnonzero(mask)] += alpha
            b -= alpha * np.where(mask, weights, 0.0)
    A[np.diag_indices_from(A)] += lam
    try:
        np.linalg.cholesky(A)
        d = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise StepFailure(str(exc)) from exc
    if not np.all(np.isfinite(d)):
        raise StepFailure("non-finite step")
    return d


def reference_subset(ds, idx):
    return DelayedDataset(
        X=ds.X[idx], Y_hist=ds.Y_hist[idx], T=ds.T[idx], d_u=ds.d_u,
        d_y=ds.d_y, first_usable_index=ds.first_usable_index)


def reference_block_mse(net, ds, idx):
    sub = reference_subset(ds, idx)
    return float(np.mean((forward_open(net, sub) - sub.T) ** 2))


def reference_train(config, dataset, splits, params, seed):
    """The LM epoch loop with a Cholesky test in every damping try and a
    fresh forward pass over each of the three blocks after every epoch.

    Returns (best theta, records, stop_reason, best_epoch).
    """
    train_idx, val_idx, test_idx = splits
    train_set = reference_subset(dataset, train_idx)
    n_train = train_set.n_samples
    net = init_weights(config, seed)
    theta = net.theta
    bias_mask = ~config.penalized
    lam, xi = params.mu, params.xi

    def objective(th):
        candidate = NarxNetwork.from_flat(config, th)
        err = forward_open(candidate, train_set) - train_set.T
        return msereg(err, th, xi, penalized=~bias_mask), candidate

    records = []
    best_epoch, best_val, best_theta = -1, np.inf, theta.copy()
    fails = 0
    stop_reason = "epochs-exhausted"
    obj, net = objective(theta)
    for epoch in range(params.epochs):
        J, F = jacobian(net, train_set)
        grad = xi * (2.0 / n_train) * (J.T @ F)
        if xi < 1.0:
            mask = ~bias_mask
            grad = grad + (1.0 - xi) * (2.0 / int(mask.sum())) * np.where(mask, theta, 0.0)
        grad_norm = float(np.max(np.abs(grad)))
        accepted = False
        while lam <= params.mu_max:
            try:
                d = reference_lm_step(J, F, lam, theta, xi, bias_mask)
            except StepFailure:
                lam *= params.mu_inc
                continue
            cand_obj, cand_net = objective(theta + d)
            if np.isfinite(cand_obj) and cand_obj < obj:
                theta = theta + d
                obj, net = cand_obj, cand_net
                lam *= params.mu_dec
                accepted = True
                break
            lam *= params.mu_inc
        val_mse = reference_block_mse(net, dataset, val_idx)
        records.append(EpochRecord(
            epoch, obj, reference_block_mse(net, dataset, train_idx), val_mse,
            reference_block_mse(net, dataset, test_idx), grad_norm, lam))
        if val_mse < best_val:
            best_val, best_epoch, best_theta = val_mse, epoch, theta.copy()
            fails = 0
        else:
            fails += 1
        if not accepted:
            stop_reason = "mu-max"
            break
        if obj <= params.goal:
            stop_reason = "goal-met"
            break
        if grad_norm <= params.min_grad:
            stop_reason = "min-grad"
            break
        if fails >= params.max_fail:
            stop_reason = "max-fail"
            break
    if best_epoch < 0:
        best_epoch, best_theta = len(records) - 1, theta.copy()
    return best_theta, records, stop_reason, best_epoch


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("xi", [0.9, 1.0])
    def test_bit_identical(self, xi):
        frame, _ = synthetic_ohlcv_frame(200, seed=21, noise_std=0.02)
        prep = prepare(frame, d_u=(0, 1), d_y=(1, 2))
        # 60 epochs without early stopping; each run raises the damping
        # after a rejected step at least once
        params = TrainParams(xi=xi, epochs=60, goal=1e-12, min_grad=1e-12,
                             max_fail=60)
        for seed, n_hidden in ((0, 4), (1, 5), (2, 6)):
            config = NarxConfig(d_u=(0, 1), d_y=(1, 2), n_hidden=n_hidden, n_exo=4)
            report = train(init_weights(config, seed), prep.dataset, params)
            theta, records, stop_reason, best_epoch = reference_train(
                config, prep.dataset, split_indices(prep.dataset.n_samples), params, seed)
            assert np.array_equal(report.network.theta, theta)
            assert report.records == records
            assert (report.stop_reason, report.best_epoch) == (stop_reason, best_epoch)


class TestStartNetwork:
    def test_warm_start_begins_at_the_given_network(self):
        ds = teacher_dataset(120, seed=16, noise_std=0.05)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        params = TrainParams(xi=0.9, epochs=20)
        first = train(init_weights(config, 17), ds, params)
        warm = train(first.network, ds, params)
        train_set = ds.subset(ds.splits[0])
        start = msereg(forward_open(first.network, train_set) - train_set.T,
                       first.network.theta, params.xi, penalized=config.penalized)
        assert warm.records[0].train_objective <= start
        assert warm.seed is None

    def test_network_with_other_lags_rejected(self):
        # same tap counts as the dataset ((0, 1) and (1,)), other lags: the
        # taps would feed lag 2 and 5 weights with lag 0 and 1 values
        prep = prepare(synthetic_ohlcv_frame(220, seed=99, noise_std=0.02)[0], (0, 1), (1,))
        net = init_weights(NarxConfig(d_u=(2, 5), d_y=(3,), n_hidden=3, n_exo=4), 0)
        message = r"network lags \(2, 5\), \(3,\) differ from the dataset's"
        with pytest.raises(ValidationError, match=message):
            train(net, prep.dataset, TrainParams(epochs=5))
        with pytest.raises(ValidationError, match=message):
            evaluate_open(net, prep)
        with pytest.raises(ValidationError, match=message):
            simulate(net, prep, prep.dataset.first_usable_index, 10)


class TestRestarts:
    def test_single_restart_equals_train(self):
        ds = teacher_dataset(100, seed=10)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        params = TrainParams(xi=1.0, restarts=1, epochs=50)
        a = train_with_restarts(config, ds, params, seed=11)
        b = train(init_weights(config, 11), ds, params)
        # the restart loop owns the seed; a lone run from a given network has none
        assert (a.seed, b.seed) == (11, None)
        assert np.array_equal(a.network.theta, b.network.theta)
        assert a.records == b.records

    def test_best_not_worse_than_median(self):
        ds = teacher_dataset(120, seed=12, noise_std=0.1)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=4, n_exo=2)
        params = TrainParams(xi=1.0, restarts=10, epochs=40,
                             goal=1e-12, min_grad=1e-12)
        best = train_with_restarts(config, ds, params, seed=13)
        singles = [train(init_weights(config, 13 + i), ds, params).best_val_mse
                   for i in range(10)]
        assert best.best_val_mse <= np.median(singles)
        assert best.best_val_mse == min(singles)

    def test_deterministic(self):
        ds = teacher_dataset(80, seed=14, noise_std=0.05)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        params = TrainParams(xi=0.9, restarts=3, epochs=30)
        a = train_with_restarts(config, ds, params, seed=15)
        b = train_with_restarts(config, ds, params, seed=15)
        assert a.seed == b.seed
        assert np.array_equal(a.network.theta, b.network.theta)


    @staticmethod
    def _diverging(monkeypatch, config, seeds, diverged):
        """Make ``training.train`` raise DivergedError for the restarts whose
        seed is in ``diverged``; a restart's seed is the init it starts from."""
        real = training.train

        def fake(net, dataset, params):
            seed = next(s for s in seeds
                        if np.array_equal(net.theta, init_weights(config, s).theta))
            if seed in diverged:
                raise DivergedError(f"non-finite objective in run {seed}")
            return real(net, dataset, params)
        monkeypatch.setattr(training, "train", fake)

    def test_diverged_restart_is_skipped(self, monkeypatch):
        ds = teacher_dataset(100, seed=18, noise_std=0.05)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        params = TrainParams(xi=1.0, restarts=4, epochs=20)
        seeds = range(20, 24)
        alone = {s: train(init_weights(config, s), ds, params) for s in seeds}

        def key(s):
            return alone[s].best_val_mse, alone[s].best_test_mse, s
        winner = min(seeds, key=key)
        diverged = {winner, max(seeds, key=key)}
        self._diverging(monkeypatch, config, seeds, diverged)
        best = train_with_restarts(config, ds, params, seed=20)
        expected = min(set(seeds) - diverged, key=key)
        assert best.seed == expected
        assert np.array_equal(best.network.theta, alone[expected].network.theta)
        assert best.records == alone[expected].records

    def test_every_restart_diverged(self, monkeypatch):
        ds = teacher_dataset(60, seed=19)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=2, n_exo=2)
        self._diverging(monkeypatch, config, range(30, 33), {30, 31, 32})
        message = ("all 3 restarts diverged: seed 30: non-finite objective in run 30; "
                   "seed 31: non-finite objective in run 31; "
                   "seed 32: non-finite objective in run 32")
        with pytest.raises(DivergedError, match=f"^{re.escape(message)}$"):
            train_with_restarts(config, ds, TrainParams(restarts=3, epochs=5), seed=30)


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            TrainParams(mu_dec=1.2)
        with pytest.raises(ValidationError):
            TrainParams(mu_inc=0.9)
        with pytest.raises(ValidationError):
            TrainParams(xi=1.5)
        with pytest.raises(ValidationError):
            TrainParams(restarts=0)
        for bad in ({"epochs": 0}, {"epochs": -3}, {"max_fail": 0},
                    {"goal": -1e-9}, {"goal": float("nan")},
                    {"min_grad": -1e-9}, {"min_grad": float("nan")},
                    {"mu_max": float("inf")}):
            with pytest.raises(ValidationError):
                TrainParams(**bad)

    def test_stopping_criteria_boundaries_accepted(self):
        p = TrainParams(epochs=1, max_fail=1, goal=0.0, min_grad=0.0)
        assert (p.epochs, p.max_fail, p.goal, p.min_grad) == (1, 1, 0.0, 0.0)


def test_reported_msereg_is_training_objective():
    # diagnosing the best network on the training block must reproduce the
    # objective that training minimized there, bias exclusion included
    frame, _ = synthetic_ohlcv_frame(160, seed=5, noise_std=0.02)
    prep = prepare(frame, d_u=(0, 1), d_y=(1,))
    params = TrainParams(xi=0.9, restarts=2, epochs=25)
    report = fit(prep, n_hidden=4, params=params, seed=8)
    train_idx, val_idx, test_idx = prep.dataset.splits
    diag = evaluate_open(report.network, prep, idx=train_idx, xi=params.xi)
    expected = report.records[report.best_epoch].train_objective
    # evaluate_open runs the network on the block alone, as training does
    assert diag.msereg == expected
    assert diag.msereg != pytest.approx(diag.mse, rel=0, abs=1e-12)
    assert evaluate_open(report.network, prep, idx=val_idx).mse == report.best_val_mse
    assert evaluate_open(report.network, prep, idx=test_idx).mse == report.best_test_mse


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(90, 200), frame_seed=st.integers(0, 50),
       d_u=st.sampled_from([(0,), (0, 1), (0, 2), (1, 3)]),
       d_y=st.sampled_from([(1,), (1, 2), (2, 4)]),
       n_hidden=st.integers(1, 5),
       xi=st.sampled_from([0.5, 0.8, 0.9, 1.0]),
       restarts=st.integers(1, 3), seed=st.integers(0, 1000))
def test_reported_msereg_is_training_objective_property(
        rows, frame_seed, d_u, d_y, n_hidden, xi, restarts, seed):
    frame, _ = synthetic_ohlcv_frame(rows, seed=frame_seed, noise_std=0.02)
    prep = prepare(frame, d_u=d_u, d_y=d_y)
    params = TrainParams(xi=xi, restarts=restarts, epochs=12)
    report = fit(prep, n_hidden=n_hidden, params=params, seed=seed)
    train_idx, val_idx, test_idx = prep.dataset.splits
    diag = evaluate_open(report.network, prep, idx=train_idx, xi=xi)
    expected = report.records[report.best_epoch].train_objective
    assert diag.msereg == expected
    # the val and test MSE that chose the best epoch, bit for bit
    assert evaluate_open(report.network, prep, idx=val_idx).mse == report.best_val_mse
    assert evaluate_open(report.network, prep, idx=test_idx).mse == report.best_test_mse


def test_training_loads_no_scipy():
    # the LM step runs on numpy's BLAS alone; a second BLAS from scipy would
    # contend with numpy's for the same cores
    code = textwrap.dedent("""
        import sys
        from narxlm.pipeline import fit, prepare
        from narxlm.synth import synthetic_ohlcv_frame
        from narxlm.training import TrainParams
        prep = prepare(synthetic_ohlcv_frame(80, seed=1)[0], d_u=(0, 1), d_y=(1,))
        fit(prep, n_hidden=2, params=TrainParams(restarts=2, epochs=5), seed=0)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    run_child("-c", code)
