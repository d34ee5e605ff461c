"""End-to-end helpers: normalize, train, diagnose, and simulate on a frame.

Normalization is fitted on the rows that feed the training block only.
``model_json`` writes a trained model and ``load_model`` reads one back; no
other code parses a ``model.json``.
Every series here is normalized, the closed-loop rollout included; open-
and closed-loop runs are scored by one ``_score``, which inverts to prices
only for R and the divergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (
    CHANNELS,
    DEFAULT_EXO_CHANNELS,
    DEFAULT_TARGET_CHANNEL,
    DelayedDataset,
    NormalizationSpec,
    TimeSeriesFrame,
    _check_channels,
    _check_lags,
    _sample_count,
    apply_normalization,
    fit_normalization,
    prepare_delayed,
    split_indices,
)
from .diagnostics import DiagnosticsReport, VerdictThresholds, diagnose
from .errors import (
    ConfigMismatchError,
    DataFormatError,
    InsufficientDataError,
    ValidationError,
)
from .network import ClosedLoopNarx, NarxConfig, NarxNetwork, _check_dataset_lags, forward_open
from .training import TrainParams, TrainReport, msereg, train_with_restarts

MODEL_KEYS = ("config", "weights", "normalization", "exo_channels", "target_channel")


@dataclass
class PreparedData:
    frame: TimeSeriesFrame          # normalized
    norm_spec: NormalizationSpec
    dataset: DelayedDataset
    exo_channels: tuple
    target_channel: str

    @property
    def splits(self) -> tuple:
        """The dataset's (train, validation, test) sample blocks."""
        return self.dataset.splits


def prepare(raw_frame: TimeSeriesFrame, d_u, d_y,
            exo_channels=DEFAULT_EXO_CHANNELS,
            target_channel=DEFAULT_TARGET_CHANNEL,
            norm_spec: NormalizationSpec | None = None) -> PreparedData:
    """Normalize to [-1, 1], build the delayed dataset and split it 70/15/15 in time.

    The channels are checked first.  Without ``norm_spec`` the normalization
    is fitted on the rows that feed the training block; a given spec (a
    saved model's) is applied as is, and must hold a range for every
    channel the dataset reads, else ``ValidationError`` names the first
    missing one.  ``NormalizationSpec`` itself checks each range.
    """
    exo_channels = _check_channels(exo_channels, target_channel)
    d_u, d_y = _check_lags(d_u, d_y)
    max_lag = max(d_u[-1], d_y[-1])
    # the split rule sizes the fit window, before the normalized dataset exists;
    # it rejects fewer than 3 samples
    train_idx = split_indices(_sample_count(len(raw_frame), max_lag))[0]
    if norm_spec is None:
        # rows feeding the training samples: everything up to the last train target
        norm_spec = fit_normalization(raw_frame, sorted(set(exo_channels) | {target_channel}),
                                      fit_rows=max_lag + len(train_idx))
    for ch in exo_channels + (target_channel,):
        if ch not in norm_spec.ranges:
            raise ValidationError(f"normalization spec has no range for channel {ch!r}")
    frame = apply_normalization(raw_frame, norm_spec)
    dataset = prepare_delayed(frame, d_u, d_y, exo_channels, target_channel)
    return PreparedData(frame, norm_spec, dataset, exo_channels, target_channel)


def model_json(net: NarxNetwork, prep: PreparedData) -> str:
    """The ``model.json`` text of ``net`` trained on ``prep``: the network, the
    normalization and the channel names, which ``load_model`` reads back."""
    return json.dumps({**net.to_dict(),
                       "normalization": prep.norm_spec.to_dict(),
                       "exo_channels": list(prep.exo_channels),
                       "target_channel": prep.target_channel}, indent=2)


def load_model(path, raw_frame: TimeSeriesFrame):
    """(network, prepared data): the ``model.json`` at ``path``, checked, and
    ``raw_frame`` prepared with its lags, channels and normalization.

    A document that is not UTF-8 JSON, lacks one of ``MODEL_KEYS`` or holds
    a malformed value raises ``DataFormatError``; a channel that is not an
    OHLCV channel, or a channel count the network does not take, raises
    ``ConfigMismatchError``.  A file that cannot be read raises ``OSError``.
    A bad range (``NormalizationSpec``) or a channel without one
    (``prepare``) raises ``ValidationError``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad bytes, bad JSON, deep nesting
            raise DataFormatError(f"model is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError("model document is not a JSON object")
    for key in MODEL_KEYS:
        if key not in doc:
            raise DataFormatError(f"model document has no {key!r}")
    try:
        net = NarxNetwork.from_dict(doc)
        norm_spec = NormalizationSpec.from_dict(doc["normalization"])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataFormatError(
            f"malformed model document: {type(exc).__name__} {exc}") from exc
    exo_channels, target_channel = doc["exo_channels"], doc["target_channel"]
    if not (isinstance(exo_channels, list) and all(isinstance(ch, str) for ch in exo_channels)):
        raise DataFormatError("malformed model document: 'exo_channels' must be a list of strings")
    if not isinstance(target_channel, str):
        raise DataFormatError("malformed model document: 'target_channel' must be a string")
    exo_channels = tuple(exo_channels)
    for ch in exo_channels + (target_channel,):
        if ch not in CHANNELS:
            raise ConfigMismatchError(f"model channel {ch!r} not present in OHLCV data")
    if net.config.n_exo != len(exo_channels):
        raise ConfigMismatchError(
            f"model expects {net.config.n_exo} exogenous channels, "
            f"model lists {len(exo_channels)}")
    return net, prepare(raw_frame, net.config.d_u, net.config.d_y, exo_channels,
                        target_channel, norm_spec=norm_spec)


def fit(prep: PreparedData, n_hidden: int, params: TrainParams, seed: int) -> TrainReport:
    config = NarxConfig(d_u=prep.dataset.d_u, d_y=prep.dataset.d_y,
                        n_hidden=n_hidden, n_exo=len(prep.exo_channels))
    return train_with_restarts(config, prep.dataset, params, seed)


def _score(prep: PreparedData, pred, targ, rows, msereg,
           thresholds: VerdictThresholds) -> DiagnosticsReport:
    """Diagnostics for normalized predictions ``pred`` of targets ``targ`` at frame ``rows``.

    R and divergence are taken in prices; the residual ``pred - targ`` and
    the exogenous channels at ``rows`` stay normalized.
    """
    spec, target = prep.norm_spec, prep.target_channel
    exo = {ch: prep.frame.channel(ch)[rows] for ch in prep.exo_channels}
    return diagnose(spec.invert_values(pred, target), spec.invert_values(targ, target),
                    pred - targ, exo, msereg, thresholds)


def evaluate_open(net: NarxNetwork, prep: PreparedData, idx=None, xi: float | None = None,
                  thresholds: VerdictThresholds = VerdictThresholds()) -> DiagnosticsReport:
    """Open-loop one-step diagnostics on a sample block (all samples if None).

    The network runs on the block's samples only, the forward pass ``train``
    scores its blocks with; ``DelayedDataset.subset`` checks the block.
    The report's msereg is the training objective with ``xi`` on the block,
    or None without ``xi``.
    """
    dataset = prep.dataset
    block = dataset if idx is None else dataset.subset(idx)
    idx = np.arange(dataset.n_samples) if idx is None else np.asarray(idx)
    pred, targ = forward_open(net, block), block.T
    reg = None if xi is None else msereg(pred - targ, net.theta, xi,
                                       penalized=net.config.penalized)
    return _score(prep, pred, targ, dataset.first_usable_index + idx, reg, thresholds)


def simulate(net: NarxNetwork, prep: PreparedData, start_row: int, horizon: int):
    """Closed-loop rollout starting at frame row ``start_row``.

    Targets before start_row prime the feedback taps; the exogenous taps of
    rows start_row.. are those rows of the prepared dataset's X, so ``net``
    must have the dataset's lags.  Returns (timesteps, predictions,
    targets), both normalized, the targets a copy of the frame's rows; a
    negative horizon or one past the frame raises.
    """
    frame, dataset = prep.frame, prep.dataset
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    _check_dataset_lags(net.config, dataset)
    k = start_row - dataset.first_usable_index  # start_row's sample
    if k < 0:
        raise InsufficientDataError("start_row leaves too little priming history")
    if start_row + horizon > len(frame):
        raise InsufficientDataError(
            f"horizon {horizon} from row {start_row} exceeds frame length {len(frame)}")
    y = frame.channel(prep.target_channel)
    preds = ClosedLoopNarx(net).simulate(y[:start_row], dataset.X[k:k + horizon])
    rows = slice(start_row, start_row + horizon)
    return frame.timesteps[rows], preds, y[rows].copy()


def simulate_diagnostics(preds, targs, prep: PreparedData, start_row: int,
                         thresholds: VerdictThresholds = VerdictThresholds()) -> DiagnosticsReport:
    """Diagnostics for a normalized closed-loop run from ``simulate`` at ``start_row``."""
    return _score(prep, preds, targs, slice(start_row, start_row + len(preds)), None,
                  thresholds)
