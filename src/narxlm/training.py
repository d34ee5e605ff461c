"""Levenberg-Marquardt training with regularized mean-square objective.

The objective blends the mean squared residual with the mean squared weight,
obj = xi * MSE + (1 - xi) * MSW, with biases always excluded from MSW.
Each epoch builds the regularized normal equations once (``normal_equations``)
and proposes damped Gauss-Newton steps from them (``lm_step``), raising the
damping until a step lowers the objective; validation MSE drives early
stopping with best-weights restoration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import _mse
from .errors import DivergedError, ValidationError
from .network import NarxConfig, NarxNetwork, forward_open, init_weights, jacobian


@dataclass(frozen=True)
class TrainParams:
    mu0: float = 1.0
    mu_dec: float = 0.8
    mu_inc: float = 1.5
    mu_max: float = 1e10
    epochs: int = 1000
    goal: float = 1e-5
    min_grad: float = 1e-7
    max_fail: int = 6
    xi: float = 0.9
    restarts: int = 10

    def __post_init__(self):
        if not (0.0 < self.mu_dec < 1.0 < self.mu_inc):
            raise ValidationError("need 0 < mu_dec < 1 < mu_inc")
        if not (0.0 < self.mu0 < self.mu_max < np.inf):
            raise ValidationError("need 0 < mu0 < mu_max < inf")
        if not (0.0 <= self.xi <= 1.0):
            raise ValidationError("xi must lie in [0, 1]")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.max_fail < 1:
            raise ValidationError("max_fail must be >= 1")
        if not (self.goal >= 0.0):
            raise ValidationError("goal must be >= 0")
        if not (self.min_grad >= 0.0):
            raise ValidationError("min_grad must be >= 0")


@dataclass
class EpochRecord:
    epoch: int
    train_objective: float
    train_mse: float
    val_mse: float
    test_mse: float
    grad_norm: float
    lam: float


@dataclass
class TrainReport:
    records: list
    stop_reason: str
    best_epoch: int
    network: NarxNetwork
    seed: int | None = None  # the init's seed: train_with_restarts sets it

    @property
    def best_val_mse(self) -> float:
        return self.records[self.best_epoch].val_mse

    @property
    def best_test_mse(self) -> float:
        return self.records[self.best_epoch].test_mse

    def to_dict(self) -> dict:
        return {
            "stop_reason": self.stop_reason,
            "best_epoch": self.best_epoch,
            "seed": self.seed,
            "n_epochs": len(self.records),
            "best_val_mse": self.best_val_mse,
            "best_test_mse": self.best_test_mse,
            "final_train_objective": self.records[-1].train_objective,
        }


def msereg(errors, weights, xi, *, penalized):
    """xi * mean(errors^2) + (1 - xi) * mean(weights^2), the weight mean over
    the boolean mask ``penalized`` alone (``NarxConfig.penalized`` leaves out
    the biases)."""
    errors = np.asarray(errors, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if errors.size == 0 or weights.size == 0:
        raise ValidationError("msereg needs non-empty errors and weights")
    mse = _mse(errors)
    if xi == 1.0:
        return mse
    weights = weights[penalized]
    msw = float(np.mean(weights ** 2)) if weights.size else 0.0
    return xi * mse + (1.0 - xi) * msw


class StepFailure(Exception):
    """The damped system is singular or gave a non-finite step; raise the damping."""


def normal_equations(J, F, weights, xi, *, penalized):
    """The undamped LM system (A, b) and the gradient of ``msereg`` at ``weights``.

    With S residuals and M the 0/1 diagonal of the boolean mask ``penalized``
    (the weights that enter MSW):

        A = xi*J'J + alpha*M,   b = -(xi*J'F + alpha*M w),
        grad = xi*(2/S)*J'F + (1 - xi)*(2/n_pen)*M w,

    where alpha = (1 - xi) * S / n_pen.  A d = b is the Gauss-Newton system
    of S*msereg; with xi = 1 it is J'J d = -J'F.  Built once per epoch;
    ``lm_step`` damps and solves it.
    """
    J = np.asarray(J, dtype=float)
    JtF = J.T @ np.asarray(F, dtype=float)
    A = xi * (J.T @ J)
    b = -xi * JtF
    grad = xi * (2.0 / J.shape[0]) * JtF
    n_pen = int(np.count_nonzero(penalized))
    if xi < 1.0 and n_pen:
        w = np.where(penalized, np.asarray(weights, dtype=float), 0.0)
        alpha = (1.0 - xi) * J.shape[0] / n_pen
        A[penalized, penalized] += alpha  # the penalized diagonal entries
        b -= alpha * w
        grad = grad + (1.0 - xi) * (2.0 / n_pen) * w
    return A, b, grad


def lm_step(A, b, lam):
    """Solve the damped system (A + lam*I) d = b for the step d.

    A and b come from ``normal_equations``; A is not changed.
    ``numpy.linalg.solve`` (LU on numpy's own BLAS) is the one factorization.
    An exactly singular system or a non-finite step raises StepFailure so the
    caller can retry with larger damping; a finite step from a nearly
    singular system is left to the caller's objective-decrease test.
    """
    A = np.array(A, dtype=float)
    A[np.diag_indices_from(A)] += lam
    try:
        # A is SPD in exact arithmetic (lam > 0), but no definiteness test is
        # made: a Cholesky factor would cost as much as the solve and go unused
        d = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise StepFailure(str(exc)) from exc
    if not np.all(np.isfinite(d)):
        raise StepFailure("non-finite step")
    return d


def _block_mse(net, block):
    return _mse(forward_open(net, block) - block.T)


def train(net: NarxNetwork, dataset, params: TrainParams) -> TrainReport:
    """One LM run from the network ``net``, with early stopping.

    It fits the dataset's training block, stops early on its validation
    block and scores its test block (``dataset.splits``); the network runs
    on one block at a time.  ``net`` may be a seeded init
    (``train_with_restarts``) or a trained network (a warm start).

    The loop's weights are one immutable network, ``net``: a candidate is a
    new network on ``net.theta + d``, and the best epoch's network is kept
    as it is, with no copy.
    """
    config = net.config
    train_set, val_set, test_set = (dataset.subset(idx) for idx in dataset.splits)
    penalized = config.penalized  # built on each read: read once per run

    lam, xi = params.mu0, params.xi

    def objective(th):
        candidate = NarxNetwork.from_flat(config, th)
        err = forward_open(candidate, train_set) - train_set.T
        return msereg(err, candidate.theta, xi, penalized=penalized), candidate, err

    records = []
    best_epoch, best_val, fails = -1, np.inf, 0
    stop_reason = "epochs-exhausted"
    obj, net, err = objective(net.theta)

    for epoch in range(params.epochs):
        if not np.isfinite(obj):
            raise DivergedError(f"non-finite objective at epoch {epoch}")
        # J is not kept: only A (P x P) stays alive through the damping loop
        A, b, grad = normal_equations(*jacobian(net, train_set), net.theta, xi,
                                      penalized=penalized)
        grad_norm = float(np.max(np.abs(grad)))

        # propose steps until one lowers the objective or damping tops out
        accepted = False
        while lam <= params.mu_max:
            try:
                d = lm_step(A, b, lam)
            except StepFailure:
                lam *= params.mu_inc
                continue
            cand_obj, cand_net, cand_err = objective(net.theta + d)
            if np.isfinite(cand_obj) and cand_obj < obj:
                obj, net, err = cand_obj, cand_net, cand_err
                lam *= params.mu_dec
                accepted = True
                break
            lam *= params.mu_inc

        train_mse = _mse(err)  # err: net's train-block residual
        val_mse = _block_mse(net, val_set)
        test_mse = _block_mse(net, test_set)
        records.append(EpochRecord(epoch, obj, train_mse, val_mse, test_mse, grad_norm, lam))

        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best = net
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
        best_epoch = len(records) - 1
        best = net

    return TrainReport(
        records=records,
        stop_reason=stop_reason,
        best_epoch=best_epoch,
        network=best,
    )


def train_with_restarts(config: NarxConfig, dataset, params: TrainParams,
                        seed: int) -> TrainReport:
    """Run ``params.restarts`` trainings with derived seeds; keep the best.

    Restart i trains from ``init_weights(config, seed + i)`` and records
    seed + i on its report.  Selection: minimal validation MSE at the best
    epoch, ties broken by lower test MSE, then lower seed.
    """
    reports, failures = [], []
    for i in range(params.restarts):
        try:
            report = train(init_weights(config, seed + i), dataset, params)
        except DivergedError as exc:
            failures.append((seed + i, exc))
            continue
        report.seed = seed + i
        reports.append(report)
    if not reports:
        raise DivergedError(
            f"all {params.restarts} restarts diverged: "
            + "; ".join(f"seed {s}: {e}" for s, e in failures))
    return min(reports, key=lambda r: (r.best_val_mse, r.best_test_mse, r.seed))
