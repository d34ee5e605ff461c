"""OHLCV ingestion, channel normalization, and delay-shifted dataset preparation.

The raw series is a set of named daily channels (open/high/low/volume plus the
close target).  Supervised samples are built by sliding tapped delay lines over
the series: each sample pairs lagged exogenous values and lagged targets with
the current target.

The design fixes two settings: every normalized channel maps its fitted
[min, max] onto [-1, 1], and the samples split 70/15/15 in time into
training, validation and test blocks.
"""

from __future__ import annotations

import csv
import datetime as _dt
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataFormatError,
    InsufficientDataError,
    ValidationError,
)

CHANNELS = ("open", "high", "low", "volume", "close", "adj_close")
DEFAULT_EXO_CHANNELS = ("open", "high", "low", "volume")
DEFAULT_TARGET_CHANNEL = "close"
NORM_LO, NORM_HI = -1.0, 1.0
SPLIT_RATIOS = (0.70, 0.15, 0.15)  # train, validation, test

# CSV header aliases, lower-cased and stripped of spaces/underscores
_COLUMN_ALIASES = {
    "date": "date",
    "timestep": "date",
    "open": "open",
    "high": "high",
    "low": "low",
    "close": "close",
    "volume": "volume",
    "adjclose": "adj_close",
    "adjustedclose": "adj_close",
}

_REQUIRED = ("date", "open", "high", "low", "close", "volume")

_INT64_RANGE = range(-2**63, 2**63)
_INTEGER_DATE = re.compile(r"[+-]?[0-9]+")


def parse_date(token: str) -> int:
    """Parse a date cell to an integer day index.

    Plain integers (``[+-]?[0-9]+``, no ``_`` and no non-ASCII digit) pass
    through if they fit in int64; ISO-8601 dates map to their proleptic
    Gregorian ordinal so consecutive calendar days are consecutive integers.
    """
    token = token.strip()
    if _INTEGER_DATE.fullmatch(token):
        day = int(token)
        if day not in _INT64_RANGE:
            raise DataFormatError(f"date {token!r} out of range")
        return day
    try:
        return _dt.date.fromisoformat(token).toordinal()
    except ValueError as exc:
        raise DataFormatError(f"unparseable date {token!r}") from exc


def _check_fixed(key: str, value, fixed):
    """Reject a saved model whose ``key`` differs from the value the design fixes."""
    if value != fixed:
        raise ValidationError(f"model {key} {value!r} is not supported: it must be {fixed!r}")


def _broken_price_invariant(high, low, volume):
    """(what, first row) of the first raw-price invariant broken, or None."""
    for bad, what in ((volume < 0, "negative volume"), (high < low, "high < low")):
        if bad.any():
            return what, int(np.argmax(bad))
    return None


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Daily OHLCV rows, column-major as float arrays keyed by channel name."""

    timesteps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    volume: np.ndarray
    close: np.ndarray
    adj_close: np.ndarray

    def __post_init__(self):
        n = len(self.timesteps)
        if n < 1:
            raise ValidationError("frame must contain at least one row")
        for name in CHANNELS:
            if len(getattr(self, name)) != n:
                raise ValidationError(f"channel {name!r} length mismatch")
        # compared, not subtracted: a difference of int64 days can overflow
        if n > 1 and not np.all(self.timesteps[1:] > self.timesteps[:-1]):
            raise ValidationError("timesteps must be strictly increasing")

    def validate_prices(self) -> "TimeSeriesFrame":
        """Check raw-price invariants; normalized frames need not satisfy them."""
        broken = _broken_price_invariant(self.high, self.low, self.volume)
        if broken:
            raise ValidationError(f"{broken[0]} at row {broken[1]}")
        return self

    def __len__(self) -> int:
        return len(self.timesteps)

    def channel(self, name: str) -> np.ndarray:
        if name not in CHANNELS:
            raise KeyError(f"unknown channel {name!r}")
        return getattr(self, name)

    def slice(self, start: int, stop: int) -> "TimeSeriesFrame":
        return TimeSeriesFrame(
            timesteps=self.timesteps[start:stop],
            **{c: getattr(self, c)[start:stop] for c in CHANNELS},
        )

    def restrict(self, t_from: int | None = None, t_to: int | None = None) -> "TimeSeriesFrame":
        """Rows with t_from <= timestep <= t_to (inclusive ends, None = open)."""
        mask = np.ones(len(self), dtype=bool)
        if t_from is not None:
            mask &= self.timesteps >= t_from
        if t_to is not None:
            mask &= self.timesteps <= t_to
        if not mask.any():
            raise InsufficientDataError("date range selects no rows")
        idx = np.flatnonzero(mask)
        return self.slice(int(idx[0]), int(idx[-1]) + 1)


def frame_from_columns(timesteps, open, high, low, volume, close, adj_close=None):
    """Build a frame from plain sequences; adj_close defaults to close."""
    close = np.asarray(close, dtype=float)
    return TimeSeriesFrame(
        timesteps=np.asarray(timesteps, dtype=np.int64),
        open=np.asarray(open, dtype=float),
        high=np.asarray(high, dtype=float),
        low=np.asarray(low, dtype=float),
        volume=np.asarray(volume, dtype=float),
        close=close,
        adj_close=close.copy() if adj_close is None else np.asarray(adj_close, dtype=float),
    )


def _split_lines(text: str) -> list:
    """The lines of ``text``; a line ends at LF, CRLF or a lone CR, as in csv."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _csv_rows(path, lines):
    """(CSV row number, cells) for each line; a quoted cell may not span lines.

    A line without quotes is split on commas, which is what ``csv`` does
    with it, only faster.
    """
    for lineno, line in enumerate(lines, start=1):
        if '"' not in line:
            yield lineno, line.split(",")
            continue
        # an empty second line is read only when the first ends inside quotes
        reader = csv.reader((line, ""))
        try:
            cells = next(reader)
            if reader.line_num != 1:
                raise csv.Error("a quoted cell spans lines")
        except csv.Error as exc:
            raise DataFormatError(f"{path}: bad cell on row {lineno}: {exc}") from exc
        yield lineno, cells


def _parse_values(lines, cols) -> np.ndarray:
    """The ``cols`` cells of every line as an (n, len(cols)) float array."""
    return np.loadtxt(lines, delimiter=",", usecols=cols, comments=None,
                      ndmin=2, quotechar='"')


def _bad_cell(path, lines, date_pos, cols, exc) -> DataFormatError:
    """The error for the first data row whose date or value cells do not parse.

    Runs only after the row-by-row read has failed, and returns no data.  A
    row is bad when ``parse_date`` or ``float()`` rejects one of its cells, or
    when ``_parse_values`` rejects it alone (``1_000``, which ``float()``
    takes).
    """
    rows = _csv_rows(path, lines)
    next(rows)
    for lineno, cells in rows:
        if not "".join(cells).strip():
            continue
        try:
            parse_date(cells[date_pos])
            for pos in cols:
                float(cells[pos])
            _parse_values(lines[lineno - 1:lineno], cols)
        except (DataFormatError, ValueError, IndexError) as err:
            return DataFormatError(f"{path}: bad cell on row {lineno}: {err}")
    return DataFormatError(f"{path}: {exc}")


def _one_pass(body, date_pos, cols):
    """(int64 dates, float values) of unquoted lines in one parse, or None.

    None when a cell does not parse (an ISO or bad date, a bad value, a date
    outside int64, ``1_0``, non-ASCII digits) or when a line is empty or
    skipped: ``np.loadtxt`` skips empty lines without a word.  Warnings are
    errors: numpy < 2 reads ``7.0`` as an int64 via a float with a
    ``DeprecationWarning``, and a body with no data row gives a ``UserWarning``.
    """
    if "" in body:
        return None
    dtype = np.dtype([("date", np.int64), ("values", np.float64, len(cols))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None,
                                 usecols=[date_pos, *cols], ndmin=1)
    except (ValueError, Warning):
        return None
    if len(records) != len(body):
        return None
    return records["date"], records["values"]


def _row_dates(path, lines, date_pos, cols):
    """(dates, CSV row numbers) of the rows that are not blank, row by row."""
    rows = _csv_rows(path, lines)
    next(rows)
    dates, linenos = [], []
    try:
        for lineno, cells in rows:
            if "".join(cells).strip():
                dates.append(parse_date(cells[date_pos]))
                linenos.append(lineno)
    except (DataFormatError, IndexError) as exc:
        raise _bad_cell(path, lines, date_pos, cols, exc) from exc
    return np.array(dates, dtype=np.int64), linenos


def load_ohlcv(path) -> TimeSeriesFrame:
    """Read an OHLCV CSV into a frame sorted by ascending date.

    The header must name Date, Open, High, Low, Close, Volume
    (case-insensitive); Adj Close is optional and defaults to Close.  The
    file is UTF-8 text with an optional byte-order mark.  Cells may be
    quoted with ``"``, but a quoted cell may not span lines.  Rows whose
    cells are all blank are skipped.  Every ``DataFormatError`` names the
    file, and one in a row (a bad or non-finite cell, a byte that is not
    UTF-8, an integer date outside int64) names its CSV row, counting the
    header as row 1.  So does the ``ValidationError`` for a negative volume
    or a high below the low, and the one for a repeated date names both rows.

    A file with no ``"`` below its header, no blank row (empty lines at its
    end do not count) and only integer dates that fit in int64 is read in
    one pass: one ``np.loadtxt`` call parses its date and value cells.  Any
    other file (a quoted cell, a blank row, an ISO or bad date, a bad value)
    is read row by row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        row = len(_split_lines(raw[:exc.start].decode("utf-8-sig")))
        raise DataFormatError(f"{path}: row {row} is not UTF-8 text: {exc}") from None
    if not text:
        raise DataFormatError(f"{path}: empty file")
    lines = _split_lines(text)
    while len(lines) > 1 and not lines[-1]:
        del lines[-1]  # the line breaks after the last row

    _, header = next(_csv_rows(path, lines[:1]))
    colmap = {}
    for pos, name in enumerate(header):
        key = name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")
        if key in _COLUMN_ALIASES:
            colmap[_COLUMN_ALIASES[key]] = pos
    for required in _REQUIRED:
        if required not in colmap:
            raise DataFormatError(f"{path}: missing column {required!r}")

    # frame_from_columns' argument order; adj_close falls back to close
    names = ("open", "high", "low", "volume", "close", "adj_close")
    cols = [colmap.get(ch, colmap["close"]) for ch in names]
    date_pos = colmap["date"]
    body, linenos = lines[1:], range(2, len(lines) + 1)
    # a quoted header (as some exporters write) keeps the body on one pass
    parsed = None if text.find('"', len(lines[0])) >= 0 else _one_pass(body, date_pos, cols)
    if parsed is None:
        dates, linenos = _row_dates(path, lines, date_pos, cols)
        if not linenos:
            raise DataFormatError(f"{path}: no data rows")
        try:
            values = _parse_values([lines[i - 1] for i in linenos], cols)
        except ValueError as exc:
            raise _bad_cell(path, lines, date_pos, cols, exc) from exc
    else:
        dates, values = parsed
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: non-finite {names[col]} {values[row, col]} on row {linenos[row]}")
    # checked before the sort, so that the error names the CSV row
    broken = _broken_price_invariant(values[:, 1], values[:, 2], values[:, 3])
    if broken:
        raise ValidationError(f"{path}: {broken[0]} on row {linenos[broken[1]]}")
    order = np.argsort(dates, kind="stable")
    dates = dates[order]
    repeats = np.flatnonzero(dates[1:] == dates[:-1])
    if repeats.size:
        k = repeats[0]  # the stable sort keeps the earlier row first
        row = linenos[order[k + 1]]
        _, cells = next(_csv_rows(path, lines[row - 1:row]))
        raise ValidationError(f"{path}: date {cells[date_pos].strip()} on row {row}"
                              f" repeats row {linenos[order[k]]}")
    columns = np.ascontiguousarray(values[order].T)
    return frame_from_columns(dates, *columns)


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-channel affine maps of observed [min, max] onto [NORM_LO, NORM_HI]."""

    ranges: dict  # channel -> (min, max)

    def apply_values(self, values, channel: str) -> np.ndarray:
        if channel not in self.ranges:
            raise KeyError(f"channel {channel!r} not in normalization spec")
        mn, mx = self.ranges[channel]
        values = np.asarray(values, dtype=float)
        return NORM_LO + (values - mn) * (NORM_HI - NORM_LO) / (mx - mn)

    def invert_values(self, values, channel: str) -> np.ndarray:
        if channel not in self.ranges:
            raise KeyError(f"channel {channel!r} not in normalization spec")
        mn, mx = self.ranges[channel]
        values = np.asarray(values, dtype=float)
        return mn + (values - NORM_LO) * (mx - mn) / (NORM_HI - NORM_LO)

    def to_dict(self) -> dict:
        return {
            "lo": NORM_LO,
            "hi": NORM_HI,
            "ranges": {c: [mn, mx] for c, (mn, mx) in self.ranges.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        _check_fixed("lo", float(d["lo"]), NORM_LO)
        _check_fixed("hi", float(d["hi"]), NORM_HI)
        return cls(ranges={c: (float(mn), float(mx)) for c, (mn, mx) in d["ranges"].items()})


def fit_normalization(frame: TimeSeriesFrame, channels,
                      fit_rows: int | None = None) -> NormalizationSpec:
    """Fit per-channel min/max over the first ``fit_rows`` rows (all by default).

    Constant channels have no usable range and are rejected.
    """
    stop = len(frame) if fit_rows is None else fit_rows
    ranges = {}
    for ch in channels:
        vals = frame.channel(ch)[:stop]
        mn, mx = float(np.min(vals)), float(np.max(vals))
        if mx <= mn:
            raise ValidationError(f"channel {ch!r} is constant over the fit window")
        ranges[ch] = (mn, mx)
    return NormalizationSpec(ranges=ranges)


def apply_normalization(frame: TimeSeriesFrame, spec: NormalizationSpec) -> TimeSeriesFrame:
    """Return a copy of the frame with spec'd channels mapped into [-1, 1]."""
    cols = {}
    for ch in CHANNELS:
        vals = frame.channel(ch)
        if ch in spec.ranges:
            cols[ch] = spec.apply_values(vals, ch)
        else:
            cols[ch] = vals.copy()
    return TimeSeriesFrame(timesteps=frame.timesteps.copy(), **cols)


@dataclass(frozen=True)
class DelayedDataset:
    """Supervised matrices built from tapped delay lines.

    X rows concatenate lagged exogenous values, ordered (channel, lag) with
    lags in the order given by d_u; Y_hist rows hold lagged targets ordered by
    d_y; T is the current target.
    """

    X: np.ndarray
    Y_hist: np.ndarray
    T: np.ndarray
    d_u: tuple
    d_y: tuple
    exo_channels: tuple
    target_channel: str
    first_usable_index: int
    timesteps: np.ndarray = field(default=None)

    @property
    def n_samples(self) -> int:
        return len(self.T)


def _check_lags(d_u, d_y):
    """(d_u, d_y) as sorted int tuples, after checking the NARX lag rules."""
    d_u = tuple(sorted(int(i) for i in d_u))
    d_y = tuple(sorted(int(j) for j in d_y))
    if not d_u or not d_y:
        raise ValidationError("lag sets must be non-empty")
    if any(i < 0 for i in d_u):
        raise ValidationError("input lags must be >= 0")
    if any(j < 1 for j in d_y):
        raise ValidationError("feedback lags must be >= 1 (lag 0 is the prediction itself)")
    return d_u, d_y


def _delayed(exo_cols, y, d_u, d_y, exo_channels, target_channel,
             timesteps=None) -> DelayedDataset:
    """Tapped delay lines over the exogenous columns and the target ``y``.

    X columns are ordered (channel, lag), with lags in sorted d_u order.
    """
    d_u, d_y = _check_lags(d_u, d_y)
    max_lag = max(max(d_u), max(d_y))
    n = len(y)
    if n <= max_lag:
        raise InsufficientDataError(
            f"frame has {n} rows but max lag {max_lag} needs at least {max_lag + 1}"
        )
    ks = np.arange(max_lag, n)
    return DelayedDataset(
        X=np.column_stack([u[ks - lag] for u in exo_cols for lag in d_u]),
        Y_hist=np.column_stack([y[ks - lag] for lag in d_y]),
        T=y[ks].copy(),
        d_u=d_u,
        d_y=d_y,
        exo_channels=tuple(exo_channels),
        target_channel=target_channel,
        first_usable_index=max_lag,
        timesteps=None if timesteps is None else timesteps[ks].copy(),
    )


def prepare_delayed(frame: TimeSeriesFrame, d_u, d_y,
                    exo_channels=DEFAULT_EXO_CHANNELS,
                    target_channel=DEFAULT_TARGET_CHANNEL) -> DelayedDataset:
    """Shift the series by the lag sets to produce supervised samples.

    Sample k (k >= first_usable_index) has regressors u_c(k-i) for i in d_u,
    c in exo_channels and y(k-j) for j in d_y, with target y(k).
    """
    return _delayed([frame.channel(ch) for ch in exo_channels],
                    frame.channel(target_channel), d_u, d_y, exo_channels,
                    target_channel, frame.timesteps)


def split_indices(n_samples: int):
    """Contiguous temporal train/validation/test blocks in SPLIT_RATIOS.

    Sizes follow largest-remainder rounding of the ratios; the blocks
    partition range(n_samples) in order.
    """
    if n_samples < 3:
        raise InsufficientDataError("need at least 3 samples to split")
    exact = [r * n_samples for r in SPLIT_RATIOS]
    sizes = [int(np.floor(e)) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    leftover = n_samples - sum(sizes)
    # hand leftover samples to the largest remainders, earlier block on ties
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        sizes[i] += 1
    # every block must hold at least one sample; steal from the largest
    while min(sizes) < 1:
        sizes[int(np.argmax(sizes))] -= 1
        sizes[int(np.argmin(sizes))] += 1

    a, b, c = sizes
    idx = np.arange(n_samples)
    return idx[:a], idx[a:a + b], idx[a + b:]
