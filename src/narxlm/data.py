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
import json
import math
import re
import string
import warnings
from dataclasses import dataclass, replace
from datetime import date

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

_PARSE_ERRORS = (ValueError, Warning)  # warnings are raised as errors

_DATE = re.compile(r"(?P<integer>[+-]?[0-9]+)|[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(token: str) -> int:
    """Parse a date cell to an integer day index.

    A signed ASCII integer (``[+-]?[0-9]+``) passes through if it fits in
    int64; ``YYYY-MM-DD`` maps to its proleptic Gregorian ordinal.  ASCII
    whitespace around either is ignored.  Nothing else is a date on any
    Python (``date.fromisoformat`` takes more from 3.11 on).
    """
    token = token.strip(string.whitespace)
    match = _DATE.fullmatch(token)
    if match and match["integer"]:
        # int() refuses a string of more digits than sys.get_int_max_str_digits()
        day = int(token) if len(token.lstrip("+-0")) <= 19 else 2**63
        if not -2**63 <= day < 2**63:
            raise DataFormatError(f"date {token!r} out of range")
        return day
    try:
        if not match:
            raise ValueError
        return date.fromisoformat(token).toordinal()
    except ValueError:
        raise DataFormatError(f"unparseable date {token!r}") from None


def _not_bool(value):
    """``value`` of a model document, unless it is a JSON boolean, which
    Python would read as the number 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return value


def _list(value) -> list:
    """``value`` of a model document where a JSON array belongs; a string or
    an object would be read one character or one key at a time."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


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
    """Daily OHLCV rows, column-major as float arrays keyed by channel name.

    This is the one frame constructor, and it takes any sequences: the
    timesteps become int64 and each channel float64 through ``np.asarray``,
    so an array that has that dtype already is kept, not copied.  An
    omitted ``adj_close`` is a copy of ``close``.  A column that is not 1-D
    raises ``ValidationError`` naming it, and so does a NaN or infinite
    channel value, with its row.
    """

    timesteps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    volume: np.ndarray
    close: np.ndarray
    adj_close: np.ndarray | None = None

    def __post_init__(self):
        if self.adj_close is None:
            object.__setattr__(self, "adj_close", np.array(self.close, dtype=float))
        for name in ("timesteps",) + CHANNELS:
            column = np.asarray(getattr(self, name),
                                dtype=np.int64 if name == "timesteps" else float)
            if column.ndim != 1:
                raise ValidationError(f"column {name!r} of shape {column.shape} is not 1-D")
            object.__setattr__(self, name, column)
        n = len(self.timesteps)
        if n < 1:
            raise ValidationError("frame must contain at least one row")
        for name in CHANNELS:
            column = getattr(self, name)
            if len(column) != n:
                raise ValidationError(f"channel {name!r} length mismatch")
            bad = ~np.isfinite(column)
            if bad.any():
                row = int(np.argmax(bad))
                raise ValidationError(f"channel {name!r} has non-finite value {column[row]}"
                                      f" at row {row}")
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


def _split_lines(text: str) -> list:
    """The lines of ``text``; a line ends at LF, CRLF or a lone CR, as in csv."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _cells(path, lineno, line) -> list:
    """The cells of CSV row ``lineno``, where a quoted cell may not span lines;
    a line without quotes is split on commas, as ``csv`` would, only faster."""
    if '"' not in line:
        return line.split(",")
    # an empty second line is read only when the first ends inside quotes
    reader = csv.reader((line, ""))
    try:
        cells = next(reader)
        if reader.line_num != 1:
            raise csv.Error("a quoted cell spans lines")
    except csv.Error as exc:
        raise DataFormatError(f"{path}: bad cell on row {lineno}: {exc}") from exc
    return cells


def _day_numbers(cells) -> np.ndarray:
    """The int64 day numbers of an ``S19`` array of date cells, as ``parse_date``
    reads them, if every cell is an unsigned ASCII integer of at most 18
    digits (int64 arithmetic holds it) or every one is ``YYYY-MM-DD``.

    Raises ValueError on any other column: one that pads, signs or mixes
    its dates, or holds a cell that ``parse_date`` would reject but numpy's
    conversions take (``1_0``, ``2010``, ``2010-01-04T00``, ``NaT``).  A
    cell cut at 19 bytes is longer than 18 digits, so it is refused too.
    """
    width = cells.dtype.itemsize
    codes = cells.view(np.uint8).reshape(-1, width)
    value = codes - np.uint8(48)  # a digit's value; above 9 (the uint8 wraps) if no digit
    ones = np.ones(width)
    # row sums, faster than an axis reduction; a cell is NUL-padded and
    # load_ohlcv refuses a NUL byte, so its non-zero bytes are its length
    length = (codes != 0) @ ones
    digits = (value <= 9) @ ones
    if (digits == length).all() and 0 < length.min() and length.max() <= 18:
        days = np.zeros(len(cells), dtype=np.int64)
        for j in range(int(length.max())):  # Horner's rule
            days = np.where(j < length, days * 10 + value[:, j], days)
        return days
    if ((length == 10) & (digits == 8) & (codes[:, 4] == ord("-"))
            & (codes[:, 7] == ord("-"))).all():
        days = cells.astype("datetime64[D]").astype(np.int64) + 719163  # 1970-01-01
        if (days >= 1).all():  # nor is year 0000 a date
            return days
    raise ValueError("the date cells are not all plain integers or all YYYY-MM-DD")


def _parse(lines, date_pos, cols):
    """(int64 day numbers, (n, len(cols)) float values) of a plain file's lines.

    The fast route: one ``np.loadtxt`` call reads the date cells as ``S19``
    bytes and the ``cols`` cells as floats, and ``_day_numbers`` converts the
    dates in bulk.  Raises one of ``_PARSE_ERRORS`` on any file that is not
    plain: a bad cell, a blank row, no data row, a date column that
    ``_day_numbers`` refuses, or a value that is not finite.
    """
    dtype = np.dtype([("date", "S19"), ("values", np.float64, len(cols))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                             usecols=[date_pos, *cols], ndmin=1, quotechar='"')
    if len(records) != len(lines):
        raise ValueError(f"np.loadtxt read {len(records)} rows from {len(lines)} lines")
    values = records["values"]
    if not np.isfinite(values).all():
        raise ValueError("a value is not finite")
    return _day_numbers(np.ascontiguousarray(records["date"])), values


def _value(cell: str) -> float:
    """A value cell as ``np.loadtxt`` reads it: ``float()`` of the cell
    stripped of whitespace, which must be ASCII and hold no ``_``."""
    try:
        if "_" in cell or not cell.strip().isascii():
            raise ValueError
        return float(cell.strip())
    except ValueError:
        raise ValueError(f"could not convert string to float: {cell!r}") from None


def _rows(path, lines, date_pos, cols):
    """(day numbers, values, CSV rows) of the data rows of ``lines``, read one
    at a time in file order; a blank row is skipped.

    The route for every file ``_parse`` does not take.  The first fault met
    raises ``DataFormatError`` naming its row: a cell ``_cells``,
    ``parse_date`` or ``_value`` rejects, a missing cell, or a value that
    is not finite.
    """
    dates, values, linenos = [], [], []
    for lineno in range(2, len(lines) + 1):
        cells = _cells(path, lineno, lines[lineno - 1])
        if not "".join(cells).strip():
            continue
        try:
            day = parse_date(cells[date_pos])
            row = [_value(cells[pos]) for pos in cols]
        except (DataFormatError, IndexError, ValueError) as err:
            raise DataFormatError(f"{path}: bad cell on row {lineno}: {err}") from None
        for channel, v in zip(CHANNELS, row):
            if not math.isfinite(v):
                raise DataFormatError(f"{path}: non-finite {channel} {v} on row {lineno}")
        dates.append(day)
        values.append(row)
        linenos.append(lineno)
    if not linenos:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(dates, dtype=np.int64), np.array(values), linenos


def load_ohlcv(path, raw: bytes | None = None) -> TimeSeriesFrame:
    """Read an OHLCV CSV into a frame sorted by ascending date.

    The header must name Date, Open, High, Low, Close, Volume
    (case-insensitive); Adj Close is optional, and a missing one is the
    frame's copy of Close (``TimeSeriesFrame``).  The file is UTF-8 text
    with an optional byte-order mark and no NUL byte.  Cells may be quoted
    with ``"``, but a quoted cell may not span lines.
    Rows whose cells are all blank are skipped.  A date is ``YYYY-MM-DD``
    or a signed ASCII integer (``parse_date``).  Every ``DataFormatError``
    names the file, and one in a row (a bad or non-finite cell, a byte that
    is not UTF-8 or is NUL, an integer date outside int64) names its CSV
    row, counting the header as row 1.  So does the ``ValidationError`` for
    a negative volume or a high below the low, and the one for a repeated
    date names both rows.

    A file takes one of two routes.  A plain file (every date an unsigned
    integer of at most 18 digits, or every one ``YYYY-MM-DD``; no blank
    row; every value finite) is read by one ``np.loadtxt`` call with its
    dates converted in bulk (``_parse``).  Any other file is read row by
    row in file order (``_rows``), which names the first fault it meets.
    Both give the same frame for a file both take.

    ``raw`` is the file's content when the caller has read it already (the
    CLI hashes the bytes it parses); ``path`` then only names the file.
    """
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        row = len(_split_lines(raw[:exc.start].decode("utf-8-sig")))
        raise DataFormatError(f"{path}: row {row} is not UTF-8 text: {exc}") from None
    if not text:
        raise DataFormatError(f"{path}: empty file")
    if b"\0" in raw:  # np.loadtxt drops a NUL at the end of a date cell
        row = len(_split_lines(raw[:raw.index(b"\0")].decode("utf-8-sig")))
        raise DataFormatError(f"{path}: row {row} holds a NUL byte")
    lines = _split_lines(text)
    while len(lines) > 1 and not lines[-1]:
        del lines[-1]  # the line breaks after the last row

    colmap = {}
    for pos, name in enumerate(_cells(path, 1, lines[0])):
        key = name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")
        channel = _COLUMN_ALIASES.get(key)
        if channel in colmap:
            raise DataFormatError(f"{path}: columns {colmap[channel] + 1} and {pos + 1}"
                                  f" both name {channel!r}")
        if channel:
            colmap[channel] = pos
    for required in _REQUIRED:
        if required not in colmap:
            raise DataFormatError(f"{path}: missing column {required!r}")

    # TimeSeriesFrame's argument order; the frame copies close for a missing adj_close
    cols = [colmap[ch] for ch in CHANNELS if ch in colmap]
    date_pos = colmap["date"]
    linenos = range(2, len(lines) + 1)
    try:
        dates, values = _parse(lines[1:], date_pos, cols)
    except _PARSE_ERRORS:
        dates, values, linenos = _rows(path, lines, date_pos, cols)
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
        cells = _cells(path, row, lines[row - 1])
        raise ValidationError(f"{path}: date {cells[date_pos].strip()} on row {row}"
                              f" repeats row {linenos[order[k]]}")
    columns = np.ascontiguousarray(values[order].T)
    return TimeSeriesFrame(dates, *columns)


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows of Python values, one line each.

    A float cell is its ``repr``, which reads back to the same value (a
    numpy scalar's repr names its type under numpy 2, so pass ``tolist()``
    values); a lag tuple is joined with ``|``; a string is JSON-quoted, so
    a comma stays inside its cell; any other cell is its ``repr``.
    """
    def cell(value):
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, tuple):
            return "|".join(map(str, value))
        return json.dumps(value) if isinstance(value, str) else repr(value)

    return "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-channel affine maps of observed [min, max] onto [NORM_LO, NORM_HI].

    The spec owns the range rule: every channel's range must satisfy
    ``0 < max - min < inf``, so a constant, reversed, NaN or infinite range,
    or one whose width overflows, raises ``ValidationError`` however the
    spec is built (``fit_normalization``, ``from_dict`` or directly).  The
    maps divide by the width before they scale, so no finite value within
    the range overflows; a value so far outside it that its image is not
    finite raises ``ValidationError`` naming the channel and its range.
    """

    ranges: dict  # channel -> (min, max)

    def __post_init__(self):
        for ch, (mn, mx) in self.ranges.items():
            if not 0.0 < float(mx) - float(mn) < np.inf:  # a numpy scalar would warn
                raise ValidationError(f"channel {ch!r} has no usable range [{mn}, {mx}]")

    def apply_values(self, values, channel: str) -> np.ndarray:
        if channel not in self.ranges:
            raise KeyError(f"channel {channel!r} not in normalization spec")
        mn, mx = self.ranges[channel]
        values = np.asarray(values, dtype=float)
        with np.errstate(over="ignore"):
            mapped = NORM_LO + (values - mn) / (mx - mn) * (NORM_HI - NORM_LO)
        if not np.isfinite(mapped).all():
            raise ValidationError(f"channel {channel!r} has a value too far outside its range"
                                  f" [{mn}, {mx}] to normalize")
        return mapped

    def invert_values(self, values, channel: str) -> np.ndarray:
        if channel not in self.ranges:
            raise KeyError(f"channel {channel!r} not in normalization spec")
        mn, mx = self.ranges[channel]
        values = np.asarray(values, dtype=float)
        return mn + (values - NORM_LO) / (NORM_HI - NORM_LO) * (mx - mn)

    def to_dict(self) -> dict:
        return {
            "lo": NORM_LO,
            "hi": NORM_HI,
            "ranges": {c: [mn, mx] for c, (mn, mx) in self.ranges.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationSpec":
        _check_fixed("lo", float(_not_bool(d["lo"])), NORM_LO)
        _check_fixed("hi", float(_not_bool(d["hi"])), NORM_HI)
        ranges = {c: _list(r) for c, r in d["ranges"].items()}
        return cls(ranges={c: (float(_not_bool(mn)), float(_not_bool(mx)))
                           for c, (mn, mx) in ranges.items()})


def fit_normalization(frame: TimeSeriesFrame, channels,
                      fit_rows: int | None = None) -> NormalizationSpec:
    """Fit per-channel min/max over the first ``fit_rows`` rows (all by default).

    ``NormalizationSpec`` checks the ranges: a channel that is constant over
    the window, or whose values span more than a float holds, is rejected.
    """
    stop = len(frame) if fit_rows is None else fit_rows
    ranges = {}
    for ch in channels:
        vals = frame.channel(ch)[:stop]
        mn, mx = float(np.min(vals)), float(np.max(vals))
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
    d_y; T is the current target.  Sample k is frame row first_usable_index + k;
    the frame and the caller keep the timesteps and the channel names.
    """

    X: np.ndarray
    Y_hist: np.ndarray
    T: np.ndarray
    d_u: tuple
    d_y: tuple
    first_usable_index: int

    @property
    def n_samples(self) -> int:
        return len(self.T)

    @property
    def splits(self) -> tuple:
        """The (train, validation, test) sample blocks, ``split_indices`` of
        the samples, built on each read: a value object caches only what a
        timed op reads on every call, and ``train`` reads this once per run."""
        return split_indices(self.n_samples)

    def subset(self, idx) -> "DelayedDataset":
        """The samples ``idx`` for a forward pass over them alone.  The lags
        and ``first_usable_index`` are this dataset's, so sample k of the
        subset is frame row ``first_usable_index + idx[k]``, not ``+ k``.
        A block that is not a non-empty 1-D array of integer sample indices
        in [0, n_samples) raises ``ValidationError``."""
        idx = np.asarray(idx)
        if not (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu"
                and 0 <= idx.min() and idx.max() < self.n_samples):
            raise ValidationError(
                f"a block must be non-empty integer sample indices in [0, {self.n_samples})")
        return replace(self, X=self.X[idx], Y_hist=self.Y_hist[idx], T=self.T[idx])


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
    for kind, lags in (("input", d_u), ("feedback", d_y)):
        if len(set(lags)) != len(lags):
            raise ValidationError(f"{kind} lags repeat a lag: {','.join(map(str, lags))}")
    return d_u, d_y


def _check_channels(exo_channels, target_channel) -> tuple:
    """The exogenous channel names as a tuple, after checking them and the target's."""
    exo = tuple(exo_channels)
    if not exo:
        raise ValidationError("need at least one exogenous channel")
    for ch in exo + (target_channel,):
        if ch not in CHANNELS:
            raise ValidationError(
                f"unknown channel {ch!r}; valid channels: {', '.join(CHANNELS)}")
    if target_channel in exo:
        # with input lag 0 the target y(k) would be a regressor of itself
        raise ValidationError(
            f"target channel {target_channel!r} cannot be an exogenous channel")
    if len(set(exo)) != len(exo):
        raise ValidationError(f"exogenous channels repeat a name: {','.join(exo)}")
    return exo


def _taps(cols, lags, ks) -> np.ndarray:
    """Tapped delay lines: row r holds col[ks[r] - lag] for each column, then
    each lag in ``lags`` order, so the columns are ordered (channel, lag)."""
    return np.column_stack([u[ks - lag] for u in cols for lag in lags])


def _sample_count(n_rows: int, max_lag: int) -> int:
    """The samples that ``n_rows`` frame rows give at largest lag ``max_lag``."""
    if n_rows <= max_lag:
        raise InsufficientDataError(
            f"frame has {n_rows} rows but max lag {max_lag} needs at least {max_lag + 1}")
    return n_rows - max_lag


def prepare_delayed(frame: TimeSeriesFrame, d_u, d_y,
                    exo_channels=DEFAULT_EXO_CHANNELS,
                    target_channel=DEFAULT_TARGET_CHANNEL) -> DelayedDataset:
    """Shift the series by the lag sets to produce supervised samples.

    Sample k (k >= first_usable_index) has regressors u_c(k-i) for i in d_u,
    c in exo_channels and y(k-j) for j in d_y, with target y(k).  X columns
    are ordered (channel, lag), with lags in sorted d_u order.  The channels
    must be known, distinct and not the target (``_check_channels``).
    """
    exo_channels = _check_channels(exo_channels, target_channel)
    d_u, d_y = _check_lags(d_u, d_y)
    y = frame.channel(target_channel)
    max_lag = max(max(d_u), max(d_y))
    ks = max_lag + np.arange(_sample_count(len(y), max_lag))
    return DelayedDataset(X=_taps([frame.channel(ch) for ch in exo_channels], d_u, ks),
                          Y_hist=_taps([y], d_y, ks), T=y[ks].copy(),
                          d_u=d_u, d_y=d_y, first_usable_index=max_lag)


def split_indices(n_samples: int):
    """Contiguous temporal train/validation/test blocks in SPLIT_RATIOS.

    Sizes follow largest-remainder rounding of the ratios; the blocks
    partition range(n_samples) in order.
    """
    if n_samples < 3:
        raise InsufficientDataError(f"need at least 3 samples to split, got {n_samples}")
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
