import copy
import dataclasses
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from narxlm import pipeline
from narxlm.data import _taps
from narxlm.errors import InsufficientDataError, ShapeError, ValidationError
from narxlm.network import (
    ClosedLoopNarx,
    NarxConfig,
    NarxNetwork,
    _blocks,
    forward_open,
    init_weights,
    jacobian,
)
from narxlm.synth import drive_teacher, synthetic_ohlcv_frame

from conftest import make_supervised


def scalar_prediction(net, u_rows, y_hist, k):
    """Independent scalar evaluation of the one-step prediction equation.

    u_rows: (n, n_exo) raw exogenous history; y_hist: raw target history;
    k: current index.  Loops over every weight individually.
    """
    c = net.config
    total = net.b_o
    for h in range(c.n_hidden):
        z = net.b_h[h]
        col = 0
        for ci in range(c.n_exo):
            for lag in c.d_u:
                z += net.W_ih[h, col] * u_rows[k - lag, ci]
                col += 1
        for j, lag in enumerate(c.d_y):
            z += net.W_yh[h, j] * y_hist[k - lag]
        total += net.W_ho[h] * np.tanh(z)
    return total


def random_setup(rng, n_samples=5):
    n_exo = int(rng.integers(1, 4))
    d_u = tuple(sorted(rng.choice(4, size=int(rng.integers(1, 3)), replace=False)))
    d_y = tuple(sorted(rng.choice(np.arange(1, 4), size=int(rng.integers(1, 3)),
                                  replace=False)))
    config = NarxConfig(d_u=d_u, d_y=d_y, n_hidden=int(rng.integers(1, 6)),
                        n_exo=n_exo)
    net = init_weights(config, int(rng.integers(1 << 30)))
    max_lag = max(max(d_u), max(d_y))
    n = n_samples + max_lag
    U = rng.normal(size=(n, n_exo))
    y = rng.normal(size=n)
    ds = make_supervised(U, y, d_u, d_y)
    return net, U, y, ds


def reference_jacobian(net, dataset):
    """The Jacobian built from 3-D temporaries and one concatenate."""
    X, Y_hist = dataset.X, dataset.Y_hist
    a = np.tanh(X @ net.W_ih.T + Y_hist @ net.W_yh.T + net.b_h)
    F = a @ net.W_ho + net.b_o - dataset.T
    S = X.shape[0]
    da = (1.0 - a * a) * net.W_ho
    J = np.concatenate([
        (da[:, :, None] * X[:, None, :]).reshape(S, -1),
        (da[:, :, None] * Y_hist[:, None, :]).reshape(S, -1),
        da,
        a,
        np.ones((S, 1)),
    ], axis=1)
    return J, F


def reference_simulate(evaluator, primer_y, primer_exo, exo_future):
    """ClosedLoopNarx.simulate as it was with one fresh hidden array per step.

    Kept as the reference that the rewritten feedback loop must match bit for
    bit.  It gathers the taps from raw exogenous rows itself: the primer's
    trailing max(d_u) rows, then one row per step of the horizon.
    """
    c, net = evaluator.config, evaluator.net
    primer_y = np.asarray(primer_y, dtype=float)
    primer_exo = np.atleast_2d(np.asarray(primer_exo, dtype=float))
    exo_future = np.asarray(exo_future, dtype=float).reshape(-1, c.n_exo) \
        if np.size(exo_future) else np.zeros((0, c.n_exo))
    max_dy, max_du = max(c.d_y), max(c.d_u)
    H = len(exo_future)
    exo = np.concatenate([primer_exo[len(primer_exo) - max_du:], exo_future])
    rows = (max_du + np.arange(H))[:, None] - np.asarray(c.d_u)
    X = exo[rows].transpose(0, 2, 1).reshape(H, c.n_input_taps)
    drive = X @ net.W_ih.T + net.b_h
    W_fb = np.zeros((max_dy, c.n_hidden))
    W_fb[max_dy - np.asarray(c.d_y)] = net.W_yh.T
    y = np.empty(max_dy + H)
    y[:max_dy] = primer_y[len(primer_y) - max_dy:]
    for t in range(H):
        a = np.tanh(drive[t] + y[t:t + max_dy] @ W_fb)
        y[max_dy + t] = a @ net.W_ho + net.b_o
    return y[max_dy:]


def _lags(rng, first, n):
    """n sorted distinct lags from first upward, gaps likely."""
    return tuple(sorted(int(v) for v in
                        rng.choice(np.arange(first, first + 6), size=n, replace=False)))


def reference_init_weights(config, seed):
    """init_weights as it was: one draw per block, in layout order.

    Kept as the reference that the two-draw init must match bit for bit.
    """
    rng = np.random.default_rng(seed)
    n, ni, ny = config.n_hidden, config.n_input_taps, len(config.d_y)
    r_hidden = 1.0 / np.sqrt(ni + ny)
    r_out = 1.0 / np.sqrt(n)
    return np.concatenate([rng.uniform(-r_hidden, r_hidden, size=(n, ni)).ravel(),
                           rng.uniform(-r_hidden, r_hidden, size=(n, ny)).ravel(),
                           rng.uniform(-r_hidden, r_hidden, size=n),
                           rng.uniform(-r_out, r_out, size=n),
                           [float(rng.uniform(-r_out, r_out))]])


BLOCK_NAMES = ("W_ih", "W_yh", "b_h", "W_ho", "b_o")
COPIERS = [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))]
COPIER_IDS = ["copy", "deepcopy", "pickle"]


class TestWeightLayout:
    def test_blocks_partition_the_vector_in_order(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            net, *_ = random_setup(rng)
            c = net.config
            blocks = _blocks(c)
            assert len(blocks) == 5 and blocks[0].start == 0
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert blocks[-1].stop == c.n_params
            sizes = [b.stop - b.start for b in blocks]
            assert sizes == [np.size(getattr(net, name)) for name in BLOCK_NAMES]
            # MSW penalizes every weight but the b_h and b_o blocks
            penalized = c.penalized
            want = np.ones(c.n_params, dtype=bool)
            want[blocks[2]] = want[blocks[4]] = False
            assert np.array_equal(penalized, want)
            assert np.count_nonzero(~penalized) == c.n_hidden + 1

    def test_blocks_are_read_only_views_of_theta(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            net, *_ = random_setup(rng)
            assert not net.theta.flags.writeable
            for name, block in zip(BLOCK_NAMES[:4], _blocks(net.config)):
                view = getattr(net, name)
                assert np.shares_memory(view, net.theta), name
                assert np.array_equal(view.ravel(), net.theta[block]), name
                with pytest.raises(ValueError, match="read-only"):
                    view[(0,) * view.ndim] = 1.0
            assert type(net.b_o) is float and net.b_o == net.theta[-1]
            with pytest.raises(ValueError, match="read-only"):
                net.theta[0] = 1.0

    def test_constructor_copies_theta(self):
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=2)
        th = np.linspace(-1.0, 1.0, config.n_params)
        net = NarxNetwork(config, th)
        assert not np.shares_memory(net.theta, th) and th.flags.writeable
        th[:] = 0.0
        assert np.array_equal(net.theta, np.linspace(-1.0, 1.0, config.n_params))
        assert np.array_equal(NarxNetwork.from_flat(config, net.theta).theta, net.theta)

    def test_init_matches_per_block_draws(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            net, *_ = random_setup(rng)
            seed = int(rng.integers(1 << 30))
            assert np.array_equal(init_weights(net.config, seed).theta,
                                  reference_init_weights(net.config, seed))

    def test_penalized_is_built_on_each_read(self):
        config = NarxConfig(d_u=(0, 2), d_y=(1, 3), n_hidden=4, n_exo=3)
        first = config.penalized
        want = first.copy()
        assert np.array_equal(config.penalized, want)
        first[:] = ~want  # a caller's write stays in its own array
        assert np.array_equal(config.penalized, want)
        assert "penalized" not in vars(config)

    @pytest.mark.parametrize("copier", COPIERS, ids=COPIER_IDS)
    def test_config_copies_by_its_fields(self, copier):
        config = NarxConfig(d_u=[2, 0], d_y=(3, 1), n_hidden=4, n_exo=3)
        other = copier(config)
        assert other == config and vars(other) == vars(config)
        assert type(other.d_u) is tuple and type(other.d_y) is tuple
        assert np.array_equal(other.penalized, config.penalized)

    @pytest.mark.parametrize("copier", COPIERS, ids=COPIER_IDS)
    def test_copy_goes_through_the_constructor(self, copier):
        config = NarxConfig(d_u=(0, 1), d_y=(1, 2), n_hidden=3, n_exo=2)
        net = init_weights(config, 4)
        net.feedback_matrix  # cached in the instance __dict__
        other = copier(net)
        assert "feedback_matrix" not in vars(other)  # rebuilt, not copied
        assert np.array_equal(other.config.penalized, config.penalized)
        assert other.config == config and np.array_equal(other.theta, net.theta)
        assert not other.theta.flags.writeable
        for name in BLOCK_NAMES[:4]:
            view = getattr(other, name)
            assert np.shares_memory(view, other.theta) and not view.flags.writeable, name
        assert other.b_o == net.b_o
        assert np.array_equal(other.feedback_matrix, net.feedback_matrix)
        assert other != net and other == other  # identity
        assert len({net, other}) == 2

    @pytest.mark.parametrize("size", [0, 5, 7])
    def test_wrong_length_rejected(self, size):
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=1, n_exo=2)  # P = 6
        with pytest.raises(ShapeError, match=re.escape(
                f"parameter vector length ({size},) != {config.n_params}")):
            NarxNetwork(config, np.zeros(size))

    @pytest.mark.parametrize("block", range(5))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, block, value):
        config = NarxConfig(d_u=(0, 1), d_y=(1, 2), n_hidden=2, n_exo=2)
        theta = np.zeros(config.n_params)
        theta[_blocks(config)[block].start] = value
        with pytest.raises(ValidationError, match="non-finite weight"):
            NarxNetwork(config, theta)


class TestInit:
    def test_deterministic(self):
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=4)
        a = init_weights(config, 123)
        b = init_weights(config, 123)
        assert np.array_equal(a.theta, b.theta)
        c = init_weights(config, 124)
        assert not np.array_equal(a.theta, c.theta)

    def test_parameter_count_example(self):
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=22, n_exo=4)
        assert config.n_params == 22 * (2 * 4 + 1 + 1) + 22 + 1 == 243
        assert init_weights(config, 0).theta.size == 243

    def test_parameter_count_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            net, *_ = random_setup(rng)
            c = net.config
            expected = c.n_hidden * (len(c.d_u) * c.n_exo + len(c.d_y) + 1) \
                + c.n_hidden + 1
            assert net.theta.size == expected == c.n_params

    def test_weight_range(self):
        config = NarxConfig(d_u=(0, 1, 2), d_y=(1, 2), n_hidden=7, n_exo=3)
        net = init_weights(config, 9)
        r_hidden = 1 / np.sqrt(3 * 3 + 2)
        r_out = 1 / np.sqrt(7)
        assert np.all(np.abs(net.W_ih) <= r_hidden)
        assert np.all(np.abs(net.W_yh) <= r_hidden)
        assert np.all(np.abs(net.b_h) <= r_hidden)
        assert np.all(np.abs(net.W_ho) <= r_out)
        assert abs(net.b_o) <= r_out

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            NarxConfig(d_u=(0,), d_y=(1,), n_hidden=0, n_exo=1)
        with pytest.raises(ValidationError):
            NarxConfig(d_u=(0,), d_y=(0,), n_hidden=1, n_exo=1)


class TestForwardOpen:
    def test_zero_network_outputs_bias(self):
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=3, n_exo=2)
        theta = np.zeros(config.n_params)
        theta[_blocks(config)[4]] = 0.7  # b_o
        net = NarxNetwork(config, theta)
        rng = np.random.default_rng(0)
        ds = make_supervised(rng.normal(size=(10, 2)), rng.normal(size=10),
                             (0,), (1,))
        assert np.allclose(forward_open(net, ds), 0.7)

    def test_tanh_odd_symmetry(self):
        # single unit, zero net input: tanh(0) = 0, so output is the bias
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=1, n_exo=1)
        theta = np.zeros(config.n_params)
        theta[-1] = 0.3
        net = NarxNetwork.from_flat(config, theta)
        ds = make_supervised(np.zeros((5, 1)), np.zeros(5), (0,), (1,))
        assert np.allclose(forward_open(net, ds), 0.3)

    def test_transfer_function_shape(self):
        # hidden output reachable with unit passthrough weights is tanh(x)
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=1, n_exo=1)
        theta = np.zeros(config.n_params)
        theta[0] = 1.0   # input weight
        theta[-2] = 1.0  # output weight
        net = NarxNetwork.from_flat(config, theta)
        x = np.linspace(-5, 5, 41)
        ds = make_supervised(np.concatenate([[0.0], x])[:, None],
                             np.zeros(42), (0,), (1,))
        out = forward_open(net, ds)
        assert np.allclose(out, np.tanh(x))
        assert np.allclose(out + out[::-1], 0.0, atol=1e-15)  # odd
        assert np.all(np.abs(out) < 1.0)                       # bounded
        h = 1e-7                                               # slope 1 at 0
        ds2 = make_supervised(np.array([[0.0], [h], [-h]]), np.zeros(3),
                              (0,), (1,))
        out2 = forward_open(net, ds2)
        assert np.isclose((out2[0] - out2[1]) / (2 * h), 1.0, atol=1e-6)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            net, U, y, ds = random_setup(rng)
            pred = forward_open(net, ds)
            first = ds.first_usable_index
            for s in range(ds.n_samples):
                expected = scalar_prediction(net, U, y, first + s)
                assert abs(pred[s] - expected) < 1e-12

    def test_shape_mismatch(self):
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=2, n_exo=2)
        net = init_weights(config, 1)
        rng = np.random.default_rng(0)
        ds = make_supervised(rng.normal(size=(10, 3)), rng.normal(size=10),
                             (0,), (1,))
        with pytest.raises(ShapeError):
            forward_open(net, ds)

    @pytest.mark.parametrize("Y_hist, message", [
        (lambda Y: np.hstack([Y, Y]), "Y_hist width (9, 2) != 1 feedback taps"),
        (lambda Y: Y[:, 0], "Y_hist width (9,) != 1 feedback taps"),
        (lambda Y: Y[:-1], "X and Y_hist row counts differ"),
    ], ids=["wide", "1-D", "short"])
    def test_feedback_taps_of_wrong_shape(self, Y_hist, message):
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=2, n_exo=2)
        net = init_weights(config, 1)
        rng = np.random.default_rng(0)
        ds = make_supervised(rng.normal(size=(10, 2)), rng.normal(size=10), (0,), (1,))
        bad = dataclasses.replace(ds, Y_hist=Y_hist(ds.Y_hist))
        for run in (forward_open, jacobian):
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                run(net, bad)


class TestJacobian:
    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net, U, y, ds = random_setup(rng, n_samples=8)
            J, F = jacobian(net, ds)
            assert np.allclose(F, forward_open(net, ds) - ds.T)
            theta = net.theta
            h = 1e-6
            J_fd = np.empty_like(J)
            for p in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[p] += h
                tm[p] -= h
                fp = forward_open(NarxNetwork.from_flat(net.config, tp), ds) - ds.T
                fm = forward_open(NarxNetwork.from_flat(net.config, tm), ds) - ds.T
                J_fd[:, p] = (fp - fm) / (2 * h)
            rel = np.max(np.abs(J - J_fd) / (1 + np.abs(J_fd)))
            assert rel < 1e-6

    @pytest.mark.parametrize("n_exo", [1, 2, 3, 4, 5])
    def test_matches_reference_builder(self, n_exo):
        rng = np.random.default_rng(100 + n_exo)
        for d_u, d_y in (((0, 2), (1, 2)), ((1, 4, 5), (1, 3, 4)),
                         ((0,), (2, 5))):
            config = NarxConfig(d_u=d_u, d_y=d_y, n_exo=n_exo,
                                n_hidden=int(rng.integers(1, 8)))
            net = init_weights(config, int(rng.integers(1 << 30)))
            n = int(rng.integers(1, 40)) + max(max(d_u), max(d_y))
            ds = make_supervised(rng.normal(size=(n, n_exo)),
                                 rng.normal(size=n), d_u, d_y)
            J, F = jacobian(net, ds)
            J_ref, F_ref = reference_jacobian(net, ds)
            assert J.shape == (ds.n_samples, config.n_params)
            assert np.array_equal(J, J_ref)
            assert np.array_equal(F, F_ref)

    def test_peak_allocation_near_jacobian_size(self):
        # the paper's size: 745 rows, N = 22, P = 243; the (S, P) result
        # should be nearly all that one call allocates
        rng = np.random.default_rng(5)
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=22, n_exo=4)
        net = init_weights(config, 1)
        ds = make_supervised(rng.normal(size=(746, 4)), rng.normal(size=746),
                             (0, 1), (1,))
        jacobian(net, ds)
        tracemalloc.start()
        try:
            J, _ = jacobian(net, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert config.n_params == 243
        assert peak < 1.5 * J.nbytes

    def test_output_bias_column(self):
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=3, n_exo=1)
        net = NarxNetwork.from_flat(config, np.zeros(config.n_params))
        rng = np.random.default_rng(3)
        ds = make_supervised(rng.normal(size=(10, 1)), rng.normal(size=10),
                             (0,), (1,))
        J, _ = jacobian(net, ds)
        assert np.allclose(J[:, -1], 1.0)

    def test_duplicate_rows(self):
        rng = np.random.default_rng(4)
        net, U, y, ds = random_setup(rng)
        from narxlm.data import DelayedDataset
        dup = DelayedDataset(
            X=np.vstack([ds.X[:1], ds.X[:1]]),
            Y_hist=np.vstack([ds.Y_hist[:1], ds.Y_hist[:1]]),
            T=np.concatenate([ds.T[:1], ds.T[:1]]),
            d_u=ds.d_u, d_y=ds.d_y, first_usable_index=ds.first_usable_index)
        J, F = jacobian(net, dup)
        assert np.array_equal(J[0], J[1])
        assert F[0] == F[1]


def _raw_taps(config, exo, start):
    """The tap rows that ``data`` builds for steps start.. of raw rows ``exo``."""
    return _taps(np.asarray(exo).T, config.d_u, np.arange(start, len(exo)))


class TestClosedLoop:
    def test_first_step_matches_open(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net, U, y, ds = random_setup(rng)
            c = net.config
            first = ds.first_usable_index
            open_pred = forward_open(net, ds)[0]
            preds = ClosedLoopNarx(net).simulate(primer_y=y[first - max(c.d_y):first],
                                                 taps=ds.X[:1])
            assert abs(preds[0] - open_pred) < 1e-12

    def test_zero_network(self):
        config = NarxConfig(d_u=(0, 1), d_y=(1, 2), n_hidden=2, n_exo=2)
        theta = np.zeros(config.n_params)
        theta[-1] = 1.5
        net = NarxNetwork.from_flat(config, theta)
        ev = ClosedLoopNarx(net)
        rng = np.random.default_rng(0)
        preds = ev.simulate(primer_y=[0.0, 0.0], taps=rng.normal(size=(10, 4)))
        assert np.allclose(preds, 1.5)

    def test_manual_three_step_rollout(self):
        # N=1, d_u={0}, d_y={1}: y(k) = wo * tanh(wi*u(k) + wy*y(k-1) + bh) + bo
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=1, n_exo=1)
        wi, wy, bh, wo, bo = 0.4, -0.7, 0.1, 1.2, 0.05
        net = NarxNetwork.from_flat(config, np.array([wi, wy, bh, wo, bo]))
        u = np.array([0.3, -0.8, 0.5])
        y0 = 0.2
        ev = ClosedLoopNarx(net)
        preds = ev.simulate([y0], u[:, None])
        y_prev = y0
        for t in range(3):
            expected = wo * np.tanh(wi * u[t] + wy * y_prev + bh) + bo
            assert abs(preds[t] - expected) < 1e-12
            y_prev = expected

    @pytest.mark.parametrize("horizon", [0, 1, 250])
    def test_reproduces_noise_free_teacher(self, horizon):
        # lag 0 plus a gap in d_u, two or more feedback lags, several channels
        rng = np.random.default_rng(51 + horizon)
        for _ in range(20):
            d_u = (0,) + tuple(rng.choice(np.arange(2, 7), size=int(rng.integers(1, 3)),
                                          replace=False))
            d_y = tuple(rng.choice(np.arange(1, 5), size=int(rng.integers(2, 4)),
                                   replace=False))
            config = NarxConfig(d_u=d_u, d_y=d_y, n_hidden=int(rng.integers(1, 9)),
                                n_exo=int(rng.integers(2, 5)))
            teacher = init_weights(config, int(rng.integers(1 << 30)))
            start = max(max(d_u), max(d_y)) + int(rng.integers(0, 10))
            U = rng.uniform(-1.0, 1.0, size=(start + horizon, config.n_exo))
            y = drive_teacher(teacher, U)
            preds = ClosedLoopNarx(teacher).simulate(y[:start], _raw_taps(config, U, start))
            assert preds.shape == (horizon,)
            assert np.all(np.abs(preds - y[start:]) < 1e-12)

    def test_empty_horizon(self):
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=2, n_exo=4)
        preds = ClosedLoopNarx(init_weights(config, 0)).simulate([0.1], np.zeros((0, 8)))
        assert preds.shape == (0,)

    def test_primer_too_short(self):
        config = NarxConfig(d_u=(0,), d_y=(1, 2, 3), n_hidden=1, n_exo=1)
        net = init_weights(config, 0)
        with pytest.raises(InsufficientDataError):
            ClosedLoopNarx(net).simulate([0.1], np.zeros((2, 1)))

    @pytest.mark.parametrize("horizon", [0, 1, 60, 250])
    def test_matches_reference_loop(self, horizon):
        rng = np.random.default_rng(70 + horizon)
        for _ in range(30):
            config = NarxConfig(d_u=_lags(rng, 0, int(rng.integers(1, 4))),
                                d_y=_lags(rng, 1, int(rng.integers(1, 4))),
                                n_hidden=int(rng.integers(1, 23)),
                                n_exo=int(rng.integers(1, 6)))
            ev = ClosedLoopNarx(init_weights(config, int(rng.integers(1 << 30))))
            primer_y = rng.uniform(-1.0, 1.0, size=max(config.d_y) + 2)
            primer_exo = rng.uniform(-1.0, 1.0, size=(max(config.d_u) + 1, config.n_exo))
            exo_future = rng.uniform(-1.0, 1.0, size=(horizon, config.n_exo))
            taps = _raw_taps(config, np.concatenate([primer_exo, exo_future]),
                             len(primer_exo))
            got = ev.simulate(primer_y, taps)
            assert np.array_equal(got, reference_simulate(ev, primer_y, primer_exo,
                                                          exo_future)), config

    @pytest.mark.parametrize("d_u,d_y", [((0, 1), (1,)), ((1, 3), (1, 2, 4))])
    def test_pipeline_matches_reference_loop_on_every_origin(self, d_u, d_y):
        frame, _ = synthetic_ohlcv_frame(400, seed=29, noise_std=0.01)
        prep = pipeline.prepare(frame, d_u, d_y)
        config = NarxConfig(d_u=d_u, d_y=d_y, n_hidden=22, n_exo=4)
        ev = ClosedLoopNarx(init_weights(config, 3))
        first = prep.dataset.first_usable_index
        origins = [first + int(k) for k in np.concatenate(prep.dataset.splits[1:])
                   if first + k + 60 <= len(frame)]
        assert len(origins) > 50
        y = prep.frame.close
        max_dy, max_du = max(d_y), max(d_u)
        for origin in origins:
            _, got, _ = pipeline.simulate(ev.net, prep, origin, 60)
            exo = np.column_stack([prep.frame.channel(ch)[origin - max_du:origin + 60]
                                   for ch in prep.exo_channels])
            want = reference_simulate(ev, y[origin - max_dy:origin], exo[:max_du],
                                      exo[max_du:])
            assert np.array_equal(got, want), origin

    @pytest.mark.parametrize("d_u,d_y", [((0, 1), (1,)), ((1, 3), (1, 2, 4))])
    def test_pipeline_rejects_negative_horizon(self, d_u, d_y):
        frame, _ = synthetic_ohlcv_frame(120, seed=29)
        prep = pipeline.prepare(frame, d_u, d_y)
        net = init_weights(NarxConfig(d_u=d_u, d_y=d_y, n_hidden=3, n_exo=4), 0)
        for horizon in (-1, -60):
            with pytest.raises(ValidationError, match=r"^horizon must be >= 0$"):
                pipeline.simulate(net, prep, 60, horizon)
        ts, preds, targs = pipeline.simulate(net, prep, 60, 0)
        assert ts.shape == preds.shape == targs.shape == (0,)

    def test_pipeline_rejects_network_of_other_lags(self):
        # the same tap width: d_u (0, 2) would read d_u (0, 1)'s columns
        frame, _ = synthetic_ohlcv_frame(120, seed=29)
        prep = pipeline.prepare(frame, (0, 1), (1,))
        for d_u, d_y in (((0, 2), (1,)), ((0, 1), (2,))):
            net = init_weights(NarxConfig(d_u=d_u, d_y=d_y, n_hidden=3, n_exo=4), 0)
            with pytest.raises(ValidationError, match="differ from the dataset's"):
                pipeline.simulate(net, prep, 60, 10)

    @pytest.mark.parametrize("shape", [(8,), (60,), (0,), (2, 60, 8), (1, 0, 8),
                                       (60, 7), (60, 4), (60, 9), (0, 4)])
    def test_taps_of_wrong_shape(self, shape):
        # as (-1, 8), a (60, 4) array would be a 30-step forecast on scrambled taps
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=4)
        ev = ClosedLoopNarx(init_weights(config, 0))
        with pytest.raises(ShapeError, match=re.escape(f"taps shape {shape} != (H, 8)")):
            ev.simulate([0.1], np.ones(shape))

    @pytest.mark.parametrize("shape", [(4,), (6,), (0,), (), (5, 1), (1, 5)])
    def test_innovations_of_wrong_shape(self, shape):
        config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=3, n_exo=4)
        ev = ClosedLoopNarx(init_weights(config, 0))
        with pytest.raises(ShapeError,
                           match=re.escape(f"innovations shape {shape} != (5,)")):
            ev.simulate([0.1], np.ones((5, 8)), np.zeros(shape))

    def test_innovations_are_fed_back(self):
        # a single step's innovation moves its own output and every later one
        config = NarxConfig(d_u=(0,), d_y=(1, 2), n_hidden=4, n_exo=2)
        ev = ClosedLoopNarx(init_weights(config, 8))
        taps = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 2))
        base = ev.simulate([0.1, 0.2], taps)
        assert np.array_equal(ev.simulate([0.1, 0.2], taps, np.zeros(6)), base)
        kicked = ev.simulate([0.1, 0.2], taps, [0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
        assert np.array_equal(kicked[:2], base[:2])
        assert abs(kicked[2] - (base[2] + 0.5)) < 1e-15
        assert np.all(kicked[3:] != base[3:])
        again = ev.simulate(np.concatenate([[0.1, 0.2], kicked[:3]]), taps[3:])
        assert np.array_equal(kicked[3:], again)

    def test_two_dimensional_primer_y(self):
        config = NarxConfig(d_u=(0,), d_y=(1, 2), n_hidden=3, n_exo=1)
        ev = ClosedLoopNarx(init_weights(config, 0))
        with pytest.raises(ShapeError, match=r"primer_y shape \(2, 1\) is not 1-D"):
            ev.simulate(np.zeros((2, 1)), np.zeros((5, 1)))

    def test_feedback_matrix_built_once_per_network(self):
        config = NarxConfig(d_u=(0,), d_y=(1, 3), n_hidden=4, n_exo=2)
        net = init_weights(config, 5)
        W_fb = net.feedback_matrix
        want = np.zeros((3, 4))
        want[3 - np.asarray(config.d_y)] = net.W_yh.T
        assert np.array_equal(W_fb, want) and not W_fb.flags.writeable
        ev = ClosedLoopNarx(net)
        first = ev.simulate([0.1, 0.2, 0.3], np.ones((5, 2)))
        assert np.array_equal(ev.simulate([0.1, 0.2, 0.3], np.ones((5, 2))), first)
        assert net.feedback_matrix is W_fb
        assert init_weights(config, 5).feedback_matrix is not W_fb


def reference_drive_teacher(net, U, seed=None, noise_std=0.0):
    """synth.drive_teacher as it was, gathering each step's taps in Python.

    Kept as the reference that ``ClosedLoopNarx.simulate`` must match to
    TEACHER_EPS_BOUND: it sums the hidden drive and adds the noise in another
    order, so the last bit may differ.
    """
    c = net.config
    U = np.atleast_2d(np.asarray(U, dtype=float))
    n = U.shape[0]
    max_lag = max(max(c.d_u), max(c.d_y))
    y = np.zeros(n)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_std, size=n) if noise_std > 0 else np.zeros(n)
    for k in range(max_lag, n):
        x_row = np.array([U[k - lag, ci] for ci in range(c.n_exo) for lag in c.d_u])
        yh_row = np.array([y[k - lag] for lag in c.d_y])
        a = np.tanh(x_row @ net.W_ih.T + yh_row @ net.W_yh.T + net.b_h)
        y[k] = float(a @ net.W_ho + net.b_o) + noise[k]
    return y


# |drive_teacher - reference_drive_teacher| bound, in ulps of 1.0 (the
# teacher outputs are O(1)); 1 ulp was the largest seen over the 120 series
TEACHER_EPS_BOUND = 4


class TestDriveTeacher:
    @pytest.mark.parametrize("noise_std", [0.0, 0.05])
    def test_matches_reference(self, noise_std):
        rng = np.random.default_rng(90 + int(noise_std * 100))
        for i in range(60):
            config = NarxConfig(d_u=_lags(rng, 0, int(rng.integers(1, 4))),
                                d_y=_lags(rng, 1, int(rng.integers(1, 4))),
                                n_hidden=int(rng.integers(1, 23)),
                                n_exo=int(rng.integers(1, 6)))
            teacher = init_weights(config, int(rng.integers(1 << 30)))
            max_lag = max(config.d_u[-1], config.d_y[-1])
            # every fifth series is no longer than the delay fill
            n = int(rng.integers(0, max_lag + 1)) if i % 5 == 0 else \
                max_lag + int(rng.integers(1, 120))
            U = rng.uniform(-1.0, 1.0, size=(n, config.n_exo))
            seed = int(rng.integers(1 << 30))
            got = drive_teacher(teacher, U, seed=seed, noise_std=noise_std)
            want = reference_drive_teacher(teacher, U, seed=seed, noise_std=noise_std)
            assert got.shape == want.shape == (n,)
            assert np.all(np.abs(got - want) <= TEACHER_EPS_BOUND * np.finfo(float).eps), \
                (config, n)
            if n <= max_lag:
                assert np.array_equal(got, np.zeros(n))

    def test_noise_free_teacher_is_simulate(self):
        rng = np.random.default_rng(95)
        for _ in range(30):
            config = NarxConfig(d_u=_lags(rng, 0, int(rng.integers(1, 4))),
                                d_y=_lags(rng, 1, int(rng.integers(1, 4))),
                                n_hidden=int(rng.integers(1, 23)),
                                n_exo=int(rng.integers(1, 6)))
            teacher = init_weights(config, int(rng.integers(1 << 30)))
            max_lag = max(config.d_u[-1], config.d_y[-1])
            U = rng.uniform(-1.0, 1.0, size=(max_lag + int(rng.integers(1, 120)),
                                             config.n_exo))
            got = drive_teacher(teacher, U, seed=int(rng.integers(1 << 30)))
            want = ClosedLoopNarx(teacher).simulate(np.zeros(max(config.d_y)),
                                                    _raw_taps(config, U, max_lag))
            assert np.array_equal(got[:max_lag], np.zeros(max_lag)), config
            assert np.array_equal(got[max_lag:], want), config

    @pytest.mark.parametrize("noise_std", [-0.01, -np.inf, np.nan, np.inf])
    def test_bad_noise_std(self, noise_std):
        message = re.escape(f"noise_std must be finite and >= 0, got {noise_std!r}")
        teacher = init_weights(NarxConfig(d_u=(0,), d_y=(1,), n_hidden=3, n_exo=2), 4)
        with pytest.raises(ValidationError, match=message):
            drive_teacher(teacher, np.zeros((50, 2)), seed=1, noise_std=noise_std)
        with pytest.raises(ValidationError, match=message):
            synthetic_ohlcv_frame(300, seed=1, noise_std=noise_std)

    def test_one_dimensional_U_is_one_channel(self):
        teacher = init_weights(NarxConfig(d_u=(0, 2), d_y=(1,), n_hidden=3, n_exo=1), 4)
        u = np.linspace(-1.0, 1.0, 50)
        got = drive_teacher(teacher, u, seed=1, noise_std=0.05)
        assert got.shape == (50,)
        assert np.array_equal(got, drive_teacher(teacher, u[:, None], seed=1, noise_std=0.05))

    @pytest.mark.parametrize("shape, message", [
        ((50, 3), "U shape (50, 3) != (n, 2)"),
        ((50,), "U shape (50, 1) != (n, 2)"),
        ((50, 2, 1), "U shape (50, 2, 1) != (n, 2)"),
    ])
    def test_U_of_wrong_shape(self, shape, message):
        teacher = init_weights(NarxConfig(d_u=(0,), d_y=(1,), n_hidden=3, n_exo=2), 4)
        with pytest.raises(ShapeError, match=re.escape(message)):
            drive_teacher(teacher, np.zeros(shape))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net, *_ = random_setup(rng)
            restored = NarxNetwork.from_dict(json.loads(net.to_json()))
            assert restored.config == net.config
            assert np.array_equal(restored.theta, net.theta)

    def test_format_version_checked(self):
        config = NarxConfig(d_u=(0,), d_y=(1,), n_hidden=1, n_exo=1)
        doc = init_weights(config, 0).to_dict()
        doc["format_version"] = 99
        with pytest.raises(ValidationError):
            NarxNetwork.from_dict(doc)
