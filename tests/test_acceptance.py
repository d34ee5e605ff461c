"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import json
import os
import time

import numpy as np
import pytest

from narxlm import cli
from narxlm.data import (
    frame_from_columns,
    split_indices,
)
from narxlm.diagnostics import confidence_bound
from narxlm.network import NarxConfig, NarxNetwork, forward_open, init_weights, jacobian
from narxlm.pipeline import evaluate_open, fit, prepare, simulate, simulate_diagnostics
from narxlm.sweep import SweepGrid, run_sweep, select_best
from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame, teacher_dataset
from narxlm.training import TrainParams, lm_step, normal_equations, train

EXO = ("open", "high", "low", "volume")


def _report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_setup(rng):
    n_exo = int(rng.integers(1, 5))
    d_u = tuple(sorted(rng.choice(4, size=int(rng.integers(1, 3)), replace=False)))
    d_y = tuple(sorted(rng.choice(np.arange(1, 4), size=int(rng.integers(1, 3)),
                                  replace=False)))
    config = NarxConfig(d_u=d_u, d_y=d_y, n_hidden=int(rng.integers(1, 8)),
                        n_exo=n_exo)
    net = init_weights(config, int(rng.integers(1 << 30)))
    from narxlm.synth import make_supervised
    max_lag = max(max(d_u), max(d_y))
    n = int(rng.integers(5, 15)) + max_lag
    U = rng.normal(size=(n, n_exo))
    y = rng.normal(size=n)
    return net, make_supervised(U, y, d_u, d_y)


def _noisy_analogue(seed=2024, noise_seed=55, n_rows=800):
    """Teacher-generated OHLCV frame with noise at 2% of the close's std."""
    frame0, _ = synthetic_ohlcv_frame(n_rows, seed=seed, noise_std=0.0)
    rng = np.random.default_rng(noise_seed)
    sigma = 0.02 * np.std(frame0.close)
    noisy_close = frame0.close + rng.normal(0, sigma, len(frame0))
    return frame_from_columns(frame0.timesteps, frame0.open, frame0.high,
                              frame0.low, frame0.volume, noisy_close)


def test_jacobian_vs_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        net, ds = _random_setup(rng)
        J, F = jacobian(net, ds)
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
        worst = max(worst, float(np.max(np.abs(J - J_fd) / (1 + np.abs(J_fd)))))
    elapsed = time.perf_counter() - t0
    _report("jacobian-finite-differences", worst < 1e-6 and elapsed < 60,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_damped_step_reduction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 20))
        p = int(rng.integers(1, min(m, 8) + 1))
        J = rng.normal(size=(m, p))
        F = rng.normal(size=m)
        lam = float(rng.uniform(0.01, 10.0))
        A, b, _ = normal_equations(J, F, rng.normal(size=p), 1.0, np.ones(p, dtype=bool))
        d = lm_step(A, b, lam)
        expected = np.linalg.solve(J.T @ J + lam * np.eye(p), -(J.T @ F))
        worst = max(worst, float(np.max(np.abs(d - expected))))
    _report("damped-step-reduction", worst < 1e-10, f"max abs err {worst:.2e}")


def test_teacher_student_recovery():
    t0 = time.perf_counter()
    _, _, _, ds = teacher_dataset(500, seed=103, n_hidden=5,
                                  d_u=(0, 1), d_y=(1,))
    splits = split_indices(ds.n_samples)
    config = NarxConfig(d_u=(0, 1), d_y=(1,), n_hidden=5, n_exo=2)
    params = TrainParams(xi=1.0, goal=1e-8, min_grad=1e-12, epochs=1000,
                         max_fail=1000)
    recovered = 0
    for i in range(10):
        report = train(config, ds, splits, params, seed=500 + i)
        final = report.records[-1]
        if final.train_mse < 1e-6:
            recovered += 1
    elapsed = time.perf_counter() - t0
    _report("teacher-student-recovery",
            recovered >= 8 and elapsed < 300,
            f"{recovered}/10 restarts under 1e-6, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def noisy_run():
    frame = _noisy_analogue()
    prep = prepare(frame, (0, 1), (1,))
    params = TrainParams(xi=1.0, epochs=200, restarts=3,
                         goal=1e-12, min_grad=1e-9)
    report = fit(prep, 5, params, seed=11)
    return frame, prep, report


def test_noisy_analogue_quality(noisy_run):
    frame, prep, report = noisy_run
    diag = evaluate_open(report.network, prep, idx=prep.splits[2])
    start = len(frame) - 100
    ts, preds, targs = simulate(report.network, prep, start, 100)
    sim_diag = simulate_diagnostics(preds, targs, prep, start)
    doc = sim_diag.to_dict()
    well_formed = (len(preds) == 100
                   and np.all(np.isfinite(preds))
                   and all(k in doc for k in
                           ("mse", "r_value", "max_divergence_pct",
                            "autocorr", "xcorr", "accepted")))
    ok = diag.r_value >= 0.99 and diag.max_divergence_pct <= 10.0 and well_formed
    _report("noisy-analogue-quality", ok,
            f"test R {diag.r_value:.5f}, divergence {diag.max_divergence_pct:.3f}%, "
            f"100-step sim {'well-formed' if well_formed else 'malformed'}")


def test_early_stopping(noisy_run):
    _, _, report = noisy_run
    ok = (report.stop_reason in {"max-fail", "goal-met", "min-grad"}
          and report.best_epoch <= len(report.records) - 1)
    _report("early-stopping", ok,
            f"stop {report.stop_reason}, best epoch {report.best_epoch} "
            f"of {len(report.records)}")


def test_confidence_band_calibration():
    rng = np.random.default_rng(104)
    from narxlm.diagnostics import error_autocorrelation
    _, bound = error_autocorrelation(rng.normal(size=11900), 20)
    ok = abs(bound - 0.018) <= 0.001 and abs(confidence_bound(11900) - 0.018) <= 0.001
    _report("confidence-band-calibration", ok, f"band {bound:.5f}")


def test_sweep_structure():
    frame = _noisy_analogue()
    params = TrainParams(xi=1.0, epochs=60, restarts=2,
                         goal=1e-12, min_grad=1e-10)
    grid = SweepGrid(((0, 1), (5,)), ((1,),), (1, 5), params, seed=3)
    rows = run_sweep(grid, frame, EXO, "close")
    best = select_best(rows)
    n_fail = sum(1 for r in rows if not r.xcorr_within_bounds)
    ok = best.xcorr_within_bounds and n_fail >= 1
    _report("sweep-structure", ok,
            f"best d_u={best.d_u} N={best.n_hidden} passes bounds; "
            f"{n_fail}/{len(rows)} configs fail them")


def test_determinism(tmp_path):
    csv_path = tmp_path / "synthetic.csv"
    frame = _noisy_analogue(n_rows=220)
    frame_to_csv(frame, csv_path)
    outputs = []
    for name in ("run_a", "run_b"):
        out = str(tmp_path / name)
        rc = cli.main(["train", "--csv", str(csv_path), "--out", out,
                       "--neurons", "4", "--seed", "9",
                       "--epochs", "30", "--restarts", "2", "--xi", "1.0"])
        assert rc == 0
        outputs.append(out)
    same = all(
        open(os.path.join(outputs[0], f), "rb").read()
        == open(os.path.join(outputs[1], f), "rb").read()
        for f in (cli.MODEL_FILE, cli.TRAIN_REPORT_FILE, cli.EPOCHS_FILE,
                  cli.DIAGNOSTICS_FILE))
    _report("determinism", same, "model/report/epochs/diagnostics byte-identical")


REAL_CSV_ENV = "NARXLM_INTC_CSV"


@pytest.mark.skipif(REAL_CSV_ENV not in os.environ,
                    reason=f"set {REAL_CSV_ENV} to an INTC OHLCV CSV "
                           "(2010-01-01..2014-03-31) to enable")
def test_real_data_check():
    from narxlm.data import load_ohlcv
    frame = load_ohlcv(os.environ[REAL_CSV_ENV])
    prep = prepare(frame, (0, 1), (1,))
    params = TrainParams(xi=0.9, epochs=200, restarts=5)
    report = fit(prep, 22, params, seed=42)
    diag = evaluate_open(report.network, prep)
    start = len(frame) - 100
    _, preds, targs = simulate(report.network, prep, start, 100)
    sim_diag = simulate_diagnostics(preds, targs, prep, start)
    ok = diag.r_value >= 0.99 and sim_diag.max_divergence_pct <= 10.0
    _report("real-data-check", ok,
            f"open-loop R {diag.r_value:.5f}, "
            f"simulated divergence {sim_diag.max_divergence_pct:.3f}%")
