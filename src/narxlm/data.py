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
import string
import warnings
from dataclasses import dataclass

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

_PARSE_ERRORS = (ValueError, OverflowError, Warning)  # warnings are raised as errors


def parse_date(token: str) -> int:
    """Parse a date cell to an integer day index.

    A signed ASCII integer (``[+-]?[0-9]+``) passes through if it fits in
    int64; ``YYYY-MM-DD`` maps to its proleptic Gregorian ordinal.  ASCII
    whitespace around either is ignored.  Nothing else is a date on any
    Python (``date.fromisoformat`` takes more from 3.11 on).
    """
    token = token.strip(string.whitespace)
    try:
        if "\0" in token:  # a bytes array drops a NUL that ends a cell
            raise ValueError
        return int(_day_numbers(np.array([token.encode("ascii")]))[0])
    except OverflowError:
        raise DataFormatError(f"date {token!r} out of range") from None
    except ValueError:  # UnicodeEncodeError too
        raise DataFormatError(f"unparseable date {token!r}") from None


def _not_bool(value):
    """``value`` of a model document, unless it is a JSON boolean, which
    Python would read as the number 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
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
    raises ``ValidationError`` naming it.
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
    """The int64 day numbers of an array of bytes date cells, as ``parse_date``.

    Raises ValueError on a cell of another shape, which numpy's conversions
    do not check (they read ``1_0`` as 10 and ``2010``, ``2010-01-04T00`` and
    ``NaT`` as dates), and OverflowError on an integer beyond int64.
    """
    cells = np.char.strip(cells)  # ASCII whitespace
    length = np.char.str_len(cells)
    width = max(int(length.max(initial=0)), 10)  # room for YYYY-MM-DD
    codes = cells.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    value = codes - np.uint8(48)  # a digit's value; above 9 (the uint8 wraps) if no digit
    digits = (value <= 9) @ np.ones(width)  # a row sum, faster than an axis reduction
    signed = (codes[:, 0] == ord("+")) | (codes[:, 0] == ord("-"))
    integer = (digits > 0) & (digits + signed == length)
    iso = (length == 10) & (digits == 8) & (codes[:, 4] == ord("-")) & (codes[:, 7] == ord("-"))
    days = np.zeros(len(cells), dtype=np.int64)
    for j in range(int(length[integer].max(initial=0))):  # Horner's rule
        days = np.where((j >= signed) & (j < length), days * 10 + value[:, j], days)
    days = np.where(codes[:, 0] == ord("-"), -days, days)
    big = integer & (digits > 18)  # more digits than int64 arithmetic holds
    days[big] = cells[big].astype(np.int64)
    days[iso] = cells[iso].astype("datetime64[D]").astype(np.int64) + 719163  # 1970-01-01
    if not (integer | iso).all() or (days[iso] < 1).any():  # nor is year 0000 a date
        raise ValueError("a date cell is neither an integer nor YYYY-MM-DD")
    return days


def _parse(lines, date_pos, cols, width=24):
    """(int64 day numbers, (n, len(cols)) float values) of CSV lines.

    One ``np.loadtxt`` call reads the date cells as ``S<width>`` bytes (a
    cell that fills the field may be cut, so then all are read again as
    wide as the longest line) and the ``cols`` cells as floats.  Raises one
    of ``_PARSE_ERRORS`` on a bad cell, no data row or a skipped empty line.
    """
    dtype = np.dtype([("date", f"S{width}"), ("values", np.float64, len(cols))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                             usecols=[date_pos, *cols], ndmin=1, quotechar='"')
    if len(records) != len(lines):
        raise ValueError(f"np.loadtxt read {len(records)} rows from {len(lines)} lines")
    cells = np.ascontiguousarray(records["date"])
    if cells.view(np.uint8)[width - 1::width].any() and width < (longest := max(map(len, lines))):
        return _parse(lines, date_pos, cols, longest)  # a cell's last byte is set
    return _day_numbers(cells), records["values"]


def _non_finite(path, values, linenos) -> DataFormatError:
    """The error for the first non-finite cell of parsed rows ``linenos``."""
    row, col = np.argwhere(~np.isfinite(values))[0]
    return DataFormatError(
        f"{path}: non-finite {CHANNELS[col]} {values[row, col]} on row {linenos[row]}")


def _bad_cell(path, lines, linenos, date_pos, cols, exc) -> DataFormatError:
    """The error for the first of the rows ``linenos`` that ``_parse`` rejects
    or reads as non-finite, found by halving, as every group that holds that
    row is bad too.  The message is ``parse_date``'s or ``float()``'s, else
    ``_non_finite``'s, else ``_parse``'s (``1_000``).
    """
    while len(linenos) > 1:
        half = len(linenos) // 2
        try:
            _, values = _parse([lines[i - 1] for i in linenos[:half]], date_pos, cols)
            bad = not np.isfinite(values).all()
        except _PARSE_ERRORS:
            bad = True
        linenos = linenos[:half] if bad else linenos[half:]
    line = lines[linenos[0] - 1]
    cells = _cells(path, linenos[0], line)
    try:
        parse_date(cells[date_pos])
        for pos in cols:
            float(cells[pos])
        _, values = _parse([line], date_pos, cols)
    except (DataFormatError, IndexError, *_PARSE_ERRORS) as err:
        return DataFormatError(f"{path}: bad cell on row {linenos[0]}: {err}")
    if np.isfinite(values).all():
        return DataFormatError(f"{path}: {exc}")
    return _non_finite(path, values, linenos)


def load_ohlcv(path, raw: bytes | None = None) -> TimeSeriesFrame:
    """Read an OHLCV CSV into a frame sorted by ascending date.

    The header must name Date, Open, High, Low, Close, Volume
    (case-insensitive); Adj Close is optional and defaults to Close.  The
    file is UTF-8 text with an optional byte-order mark and no NUL byte.
    Cells may be quoted with ``"``, but a quoted cell may not span lines.
    Rows whose cells are all blank are skipped.  A date is ``YYYY-MM-DD``
    or a signed ASCII integer (``parse_date``).  Every ``DataFormatError``
    names the file, and one in a row (a bad or non-finite cell, a byte that
    is not UTF-8 or is NUL, an integer date outside int64) names its CSV
    row, counting the header as row 1.  So does the ``ValidationError`` for
    a negative volume or a high below the low, and the one for a repeated
    date names both rows.

    One ``np.loadtxt`` call parses every row, and the date cells, integer
    and ISO alike, become day numbers in bulk.  Blank rows are dropped only
    if that fails, and rows are checked one by one only to name a bad one.

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
        if key in _COLUMN_ALIASES:
            colmap[_COLUMN_ALIASES[key]] = pos
    for required in _REQUIRED:
        if required not in colmap:
            raise DataFormatError(f"{path}: missing column {required!r}")

    # TimeSeriesFrame's argument order; adj_close falls back to close
    cols = [colmap.get(ch, colmap["close"]) for ch in CHANNELS]
    date_pos = colmap["date"]
    linenos = range(2, len(lines) + 1)
    try:
        dates, values = _parse(lines[1:], date_pos, cols)
    except _PARSE_ERRORS:
        # drop the blank rows: np.loadtxt rejects ",," and skips an empty
        # line; the rows end at one whose cells cannot be read, which is the
        # error unless a row before it is bad
        rows, unreadable = [], None
        for i in linenos:
            try:
                cells = _cells(path, i, lines[i - 1])
            except DataFormatError as err:
                unreadable = err
                break
            if "".join(cells).strip():
                rows.append(i)
        linenos = rows
        try:
            dates, values = _parse([lines[i - 1] for i in linenos], date_pos, cols)
        except _PARSE_ERRORS as exc:
            if linenos:
                raise _bad_cell(path, lines, linenos, date_pos, cols, exc) from exc
            raise unreadable or DataFormatError(f"{path}: no data rows") from None
        if unreadable and np.isfinite(values).all():  # else the check below names the row
            raise unreadable
    if not np.isfinite(values).all():
        raise _non_finite(path, values, linenos)
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
        return cls(ranges={c: (float(_not_bool(mn)), float(_not_bool(mx)))
                           for c, (mn, mx) in d["ranges"].items()})


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


def _delayed(exo_cols, y, d_u, d_y) -> DelayedDataset:
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
    return DelayedDataset(X=_taps(exo_cols, d_u, ks), Y_hist=_taps([y], d_y, ks),
                          T=y[ks].copy(), d_u=d_u, d_y=d_y, first_usable_index=max_lag)


def prepare_delayed(frame: TimeSeriesFrame, d_u, d_y,
                    exo_channels=DEFAULT_EXO_CHANNELS,
                    target_channel=DEFAULT_TARGET_CHANNEL) -> DelayedDataset:
    """Shift the series by the lag sets to produce supervised samples.

    Sample k (k >= first_usable_index) has regressors u_c(k-i) for i in d_u,
    c in exo_channels and y(k-j) for j in d_y, with target y(k).  The
    channels must be known, distinct and not the target (``_check_channels``).
    """
    exo_channels = _check_channels(exo_channels, target_channel)
    return _delayed([frame.channel(ch) for ch in exo_channels],
                    frame.channel(target_channel), d_u, d_y)


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
