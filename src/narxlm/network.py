"""NARX network: open-loop evaluation, residual Jacobian, closed-loop rollout.

The network has one hidden tanh layer fed by tapped delay lines over the
exogenous channels (lags d_u) and the target feedback signal (lags d_y), and a
single linear output unit.  These transfers are fixed (HIDDEN_TRANSFER,
OUTPUT_TRANSFER); a saved model records them.  Open-loop (series-parallel)
evaluation reads true lagged targets from the dataset; the closed-loop form
replays its own predictions into the feedback taps for multi-step-ahead
forecasting.

A network holds its weights once, as the flat vector ``theta`` that
Levenberg-Marquardt trains; the weight blocks are read-only views of it.
``_blocks`` is the one statement of the layout: the blocks, the Jacobian's
columns, the penalized mask and the init all read their slices from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import _check_fixed, _check_lags, _list, _not_bool
from .errors import InsufficientDataError, ShapeError, ValidationError

FORMAT_VERSION = 1
HIDDEN_TRANSFER = "tanh"
OUTPUT_TRANSFER = "linear"


def _integer(value) -> int:
    """An integer field of a model document: ``5.5``, ``"5"``, ``true`` and inf
    are not one."""
    number = int(_not_bool(value))
    if number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


@dataclass(frozen=True)
class NarxConfig:
    d_u: tuple
    d_y: tuple
    n_hidden: int
    n_exo: int

    def __post_init__(self):
        d_u, d_y = _check_lags(self.d_u, self.d_y)
        object.__setattr__(self, "d_u", d_u)
        object.__setattr__(self, "d_y", d_y)
        if self.n_hidden < 1:
            raise ValidationError("n_hidden must be >= 1")
        if self.n_exo < 1:
            raise ValidationError("n_exo must be >= 1")

    @property
    def n_input_taps(self) -> int:
        return len(self.d_u) * self.n_exo

    @property
    def n_params(self) -> int:
        return _blocks(self)[-1].stop

    @property
    def penalized(self) -> np.ndarray:
        """Boolean mask over the flat weights: True on W_ih, W_yh and W_ho, the
        weights MSEREG's weight mean penalizes, False on the biases b_h and
        b_o.  A new array on each read: a value object caches only what a
        timed op reads on every call, and ``train`` reads this once per run."""
        W_ih, W_yh, _, W_ho, _ = _blocks(self)
        mask = np.zeros(self.n_params, dtype=bool)
        mask[W_ih] = mask[W_yh] = mask[W_ho] = True
        return mask

    def to_dict(self) -> dict:
        return {
            "d_u": list(self.d_u),
            "d_y": list(self.d_y),
            "n_hidden": self.n_hidden,
            "n_exo": self.n_exo,
            "hidden_transfer": HIDDEN_TRANSFER,
            "output_transfer": OUTPUT_TRANSFER,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NarxConfig":
        _check_fixed("hidden_transfer", d.get("hidden_transfer", HIDDEN_TRANSFER),
                     HIDDEN_TRANSFER)
        _check_fixed("output_transfer", d.get("output_transfer", OUTPUT_TRANSFER),
                     OUTPUT_TRANSFER)
        return cls(
            d_u=tuple(map(_integer, d["d_u"])),
            d_y=tuple(map(_integer, d["d_y"])),
            n_hidden=_integer(d["n_hidden"]),
            n_exo=_integer(d["n_exo"]),
        )


def _blocks(config: NarxConfig) -> tuple:
    """The slices of W_ih, W_yh, b_h, W_ho and b_o in the flat weight vector,
    in that order: hidden-input weights, feedback weights, hidden biases,
    output weights, output bias."""
    n, blocks, start = config.n_hidden, [], 0
    for size in (n * config.n_input_taps, n * len(config.d_y), n, n, 1):
        blocks.append(slice(start, start + size))
        start += size
    return tuple(blocks)


@dataclass(frozen=True, eq=False)
class NarxNetwork:
    """A config and its flat weight vector ``theta``, the one copy of the weights.

    ``theta`` is a read-only copy, laid out as ``_blocks`` says; the blocks
    are read-only views of it.  A copy or an unpickled network is built
    through the constructor, so the same holds for it.  Networks compare
    and hash by identity.

    W_ih: (n_hidden, n_exo * |d_u|) hidden weights on exogenous taps, column
          order (channel, lag) matching DelayedDataset.X.
    W_yh: (n_hidden, |d_y|) hidden weights on feedback taps.
    b_h:  (n_hidden,) hidden biases.
    W_ho: (n_hidden,) output weights.
    b_o:  scalar output bias (a float).
    """

    config: NarxConfig
    theta: np.ndarray

    def __post_init__(self):
        c = self.config
        theta = np.array(self.theta, dtype=float)
        if theta.shape != (c.n_params,):
            raise ShapeError(f"parameter vector length {theta.shape} != {c.n_params}")
        if not np.all(np.isfinite(theta)):
            raise ValidationError("non-finite weight")
        theta.flags.writeable = False
        W_ih, W_yh, b_h, W_ho, b_o = _blocks(c)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "W_ih", theta[W_ih].reshape(c.n_hidden, c.n_input_taps))
        object.__setattr__(self, "W_yh", theta[W_yh].reshape(c.n_hidden, len(c.d_y)))
        object.__setattr__(self, "b_h", theta[b_h])
        object.__setattr__(self, "W_ho", theta[W_ho])
        object.__setattr__(self, "b_o", float(theta[b_o.start]))

    def __reduce__(self):
        return type(self), (self.config, self.theta)

    @classmethod
    def from_flat(cls, config: NarxConfig, theta: np.ndarray) -> "NarxNetwork":
        """``cls(config, theta)``: ``train`` builds each candidate through it,
        so perfbench's tracer counts the candidates as its calls."""
        return cls(config, theta)

    @cached_property
    def feedback_matrix(self) -> np.ndarray:
        """W_yh.T as a read-only (max(d_y), N) matrix, lag j in row max(d_y) - j:
        y[t - max(d_y):t] @ it is output t's feedback.  Cached in the network's
        ``__dict__`` (the frozen dataclass has no slots), since a value object
        caches only what a timed op reads on every call, and
        ``ClosedLoopNarx.simulate`` reads it on each call (each forecast origin)."""
        d_y = np.asarray(self.config.d_y)
        W_fb = np.zeros((d_y[-1], self.config.n_hidden))
        W_fb[d_y[-1] - d_y] = self.W_yh.T
        W_fb.flags.writeable = False
        return W_fb

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "config": self.config.to_dict(),
            "weights": [format(w, ".17g") for w in self.theta],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NarxNetwork":
        if _not_bool(d.get("format_version")) != FORMAT_VERSION:
            raise ValidationError(f"unsupported model format version {d.get('format_version')}")
        config = NarxConfig.from_dict(d["config"])
        theta = np.array([float(_not_bool(w)) for w in _list(d["weights"])])
        return cls.from_flat(config, theta)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def init_weights(config: NarxConfig, seed: int) -> NarxNetwork:
    """Uniform [-r, +r] init with r = 1/sqrt(fan-in), deterministic in seed."""
    rng = np.random.default_rng(seed)
    r_hidden = 1.0 / np.sqrt(config.n_input_taps + len(config.d_y))
    r_out = 1.0 / np.sqrt(config.n_hidden)
    # W_ih, W_yh, b_h, then W_ho, b_o: one draw per fan-in, in layout order
    split = _blocks(config)[2].stop
    return NarxNetwork(config, np.concatenate([
        rng.uniform(-r_hidden, r_hidden, size=split),
        rng.uniform(-r_out, r_out, size=config.n_params - split)]))


def _check_dataset_lags(config: NarxConfig, dataset) -> None:
    """A network runs only on a dataset with its own lags: equal tap counts
    are not enough, since the taps would hold other lags' values."""
    if (config.d_u, config.d_y) != (dataset.d_u, dataset.d_y):
        raise ValidationError(f"network lags {config.d_u}, {config.d_y} differ from the dataset's")


def _forward(net: NarxNetwork, dataset):
    """(a, yhat): the open loop's hidden activations (S, N) and outputs (S,),
    with true lagged targets in the feedback taps.  The one open-loop pass:
    ``forward_open`` returns its outputs and ``jacobian`` differentiates it.
    A dataset with other lags than the network's raises ``ValidationError``."""
    X, Y_hist, c = dataset.X, dataset.Y_hist, net.config
    if X.ndim != 2 or X.shape[1] != c.n_input_taps:
        raise ShapeError(f"X width {X.shape} != {c.n_input_taps} input taps")
    if Y_hist.ndim != 2 or Y_hist.shape[1] != len(c.d_y):
        raise ShapeError(f"Y_hist width {Y_hist.shape} != {len(c.d_y)} feedback taps")
    if X.shape[0] != Y_hist.shape[0]:
        raise ShapeError("X and Y_hist row counts differ")
    _check_dataset_lags(c, dataset)
    a = np.tanh(X @ net.W_ih.T + Y_hist @ net.W_yh.T + net.b_h)
    return a, a @ net.W_ho + net.b_o


def forward_open(net: NarxNetwork, dataset) -> np.ndarray:
    """One-step predictions with true lagged targets in the feedback taps."""
    return _forward(net, dataset)[1]


def jacobian(net: NarxNetwork, dataset):
    """Residuals F = yhat - T and the exact Jacobian dF/dtheta.

    Columns follow the weight layout (``_blocks``).  Row k is the gradient of
    residual k; rows are independent because open-loop evaluation is a static
    feedforward pass.
    """
    a, yhat = _forward(net, dataset)                     # a: (S, N)
    F = yhat - dataset.T

    S, c = a.shape[0], net.config
    W_ih, W_yh, b_h, W_ho, b_o = _blocks(c)
    # back-prop through the linear output and tanh hidden layer
    da = (1.0 - a * a) * net.W_ho                        # (S, N): dyhat/dz_h
    # one (S, P) array filled block by block; the weight blocks are written
    # through (S, N, taps) views of their columns
    J = np.empty((S, c.n_params))
    np.einsum("si,sp->sip", da, dataset.X, out=J[:, W_ih].reshape(S, *net.W_ih.shape))
    np.einsum("si,sp->sip", da, dataset.Y_hist, out=J[:, W_yh].reshape(S, *net.W_yh.shape))
    J[:, b_h] = da
    J[:, W_ho] = a
    J[:, b_o] = 1.0
    return J, F


class ClosedLoopNarx:
    """Closed-loop (parallel) evaluator sharing the trained weights.

    Exogenous taps arrive as rows of DelayedDataset.X, so ``data`` alone
    orders tap columns by (channel, lag); feedback taps read the evaluator's
    own predictions once the primed true values are exhausted.
    """

    def __init__(self, net: NarxNetwork):
        self.net = net
        self.config = net.config

    def simulate(self, primer_y, taps, innovations=None) -> np.ndarray:
        """Roll the network forward for H = len(taps) steps.

        primer_y: 1-D true targets before the first step, at least max(d_y)
            values; the last max(d_y) of them prime the feedback taps.
        taps: (H, n_input_taps) exogenous taps, one row per step, laid out
            as DelayedDataset.X's rows (``pipeline.simulate`` passes those).
        innovations: optional (H,) values, one per step.  Value k is added to
            output k before that output is fed back, so the later steps see
            it; a forecast passes none, and ``synth.drive_teacher`` passes its
            equation-error noise.

        The exogenous taps of every step are known up front, so their hidden
        drive taps @ W_ih.T + b_h for the whole horizon is one (H, N) matmul;
        only the |d_y|-wide feedback through ``net.feedback_matrix`` runs
        step by step.  The output bias and the innovations are folded into
        one list of H output offsets (b_o itself when there are no
        innovations).  The loop steps over the drive rows with the index of
        the output they produce: it adds the feedback product of the max(d_y)
        outputs before that index to the row in one (N,) hidden buffer,
        applies tanh there in place and writes the output unit's dot product
        plus the step's offset at that index of the output history.  The
        buffer is allocated once per call; the one array a step creates is
        the (N,) feedback product that ``dot`` returns (a ``dot(..., out=)``
        into a second buffer measured slower).  The ufuncs take the buffer
        as a positional ``out``, which parses faster than the keyword.
        """
        c = self.config
        net = self.net
        primer_y = np.asarray(primer_y, dtype=float)
        if primer_y.ndim != 1:
            raise ShapeError(f"primer_y shape {primer_y.shape} is not 1-D")
        taps = np.asarray(taps, dtype=float)
        if taps.ndim != 2 or taps.shape[1] != c.n_input_taps:
            raise ShapeError(f"taps shape {taps.shape} != (H, {c.n_input_taps})")
        if innovations is not None and np.shape(innovations) != (len(taps),):
            raise ShapeError(f"innovations shape {np.shape(innovations)} != ({len(taps)},)")
        offsets = [net.b_o] * len(taps) if innovations is None else \
            (net.b_o + np.asarray(innovations, dtype=float)).tolist()
        max_dy = max(c.d_y)
        if len(primer_y) < max_dy:
            raise InsufficientDataError(
                f"primer supplies {len(primer_y)} targets, need {max_dy}")

        drive = taps @ net.W_ih.T + net.b_h                  # (H, N)
        y = np.empty(max_dy + len(taps))
        y[:max_dy] = primer_y[len(primer_y) - max_dy:]
        # locals and ndarray.dot: on (N,) arrays a step is mostly call
        # overhead, which `@` and attribute lookups add to
        W_fb, W_ho = net.feedback_matrix, net.W_ho
        add, tanh = np.add, np.tanh
        a = np.empty(c.n_hidden)
        for t, (d, offset) in enumerate(zip(drive, offsets), max_dy):
            add(d, y[t - max_dy:t].dot(W_fb), a)
            tanh(a, a)
            y[t] = a.dot(W_ho) + offset
        return y[max_dy:]
