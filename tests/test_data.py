import csv
import datetime
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narxlm.data import (
    CHANNELS,
    NORM_HI,
    NORM_LO,
    NormalizationSpec,
    TimeSeriesFrame,
    apply_normalization,
    fit_normalization,
    load_ohlcv,
    parse_date,
    prepare_delayed,
    split_indices,
)
from narxlm.data import _COLUMN_ALIASES
from narxlm.errors import DataFormatError, InsufficientDataError, ValidationError
from narxlm.synth import frame_to_csv, synthetic_ohlcv_frame

from conftest import TABLE_ROWS, random_frame


class TestLoadOhlcv:
    def test_sample_row_values(self, sample_csv):
        frame = load_ohlcv(sample_csv)
        assert frame.open[0] == 21.01
        assert frame.high[0] == 21.05
        assert frame.low[0] == 20.78
        assert frame.volume[0] == 58223800
        assert frame.close[0] == 20.85
        assert frame.adj_close[0] == 18.54
        assert frame.timesteps[0] == 734506

    def test_single_row(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n2010-01-04,1,2,0.5,1.5,100\n")
        frame = load_ohlcv(p)
        assert len(frame) == 1
        assert frame.adj_close[0] == 1.5  # defaults to close

    def test_sorted_by_date(self, tmp_path):
        p = tmp_path / "rev.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "20,1,2,0.5,1.5,100\n10,3,4,2.5,3.5,200\n")
        frame = load_ohlcv(p)
        assert list(frame.timesteps) == [10, 20]
        assert frame.open[0] == 3

    def test_iso_dates_are_day_ordinals(self, tmp_path):
        p = tmp_path / "iso.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2010-01-04,1,2,0.5,1.5,100\n2010-01-05,1,2,0.5,1.5,100\n")
        frame = load_ohlcv(p)
        assert frame.timesteps[1] - frame.timesteps[0] == 1

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("Date,Open,High,Low,Close\n1,1,2,0.5,1.5\n")
        with pytest.raises(DataFormatError, match="volume"):
            load_ohlcv(p)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "1,1,2,0.5,1.5,100\n2,oops,2,0.5,1.5,100\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_ohlcv(p)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            f"2,1,2,0.5,1.5,100\n3,1,2,0.5,1.5,100\n1,1,2,0.5,1.5,{cell}\n")
        with pytest.raises(DataFormatError, match="non-finite volume .* on row 4"):
            load_ohlcv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_ohlcv(p)

    def test_high_below_low_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "1,1,2,0.5,1.5,100\n2,1,0.4,0.5,1.5,100\n")
        with pytest.raises(ValidationError, match="high < low on row 3$"):
            load_ohlcv(p)

    @pytest.mark.parametrize("bad_row, match", [
        ("3,1,0.4,0.5,1.5,100", "high < low on row 4$"),
        ("3,1,2,0.5,1.5,-1", "negative volume on row 4$"),
    ], ids=["high-below-low", "negative-volume"])
    def test_price_check_names_csv_row_of_shuffled_file(self, tmp_path,
                                                        bad_row, match):
        # the bad row sorts first by date, but it is row 4 of the file
        p = tmp_path / "bad.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            f"9,1,2,0.5,1.5,100\n\n{bad_row}\n5,1,2,0.5,1.5,100\n")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{p}: ") + match):
            load_ohlcv(p)

    def test_negative_volume_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2,1,2,0.5,1.5,100\n1,1,2,0.5,1.5,100\n3,1,2,0.5,1.5,-5\n")
        with pytest.raises(ValidationError, match="negative volume on row 4$"):
            load_ohlcv(p)

    def test_determinism(self, sample_csv):
        a = load_ohlcv(sample_csv)
        b = load_ohlcv(sample_csv)
        for ch in ("open", "high", "low", "volume", "close", "adj_close"):
            assert np.array_equal(a.channel(ch), b.channel(ch))

    def test_parse_date_forms(self):
        assert parse_date("734506") == 734506
        assert parse_date(" -5 ") == -5
        assert parse_date("+5") == 5
        assert parse_date("2010-01-05") - parse_date("2010-01-04") == 1
        with pytest.raises(DataFormatError):
            parse_date("Jan 4 2010")
        with pytest.raises(DataFormatError, match="unparseable date '5-'"):
            parse_date("5-")
        with pytest.raises(DataFormatError, match="out of range"):
            parse_date(str(2**63))
        # int() takes both; a date cell is [+-]?[0-9]+ or ISO-8601
        for token in ("1_0", "\u0661\u0662"):
            with pytest.raises(DataFormatError, match=f"unparseable date '{token}'"):
                parse_date(token)

    @given(token=st.one_of(
        st.integers(-2**64, 2**64).map(str),
        st.dates().map(datetime.date.isoformat),
        st.text(alphabet="0123456789+-_ \tTW:.", max_size=22),
        st.builds("{}{}{}".format, st.sampled_from(["", " ", "+", "-", "\t"]),
                  st.dates().map(lambda d: d.strftime("%Y%m%d")), st.sampled_from(["", " "]))))
    @settings(max_examples=300)
    def test_parse_date_matches_reference(self, token):
        try:
            want = reference_date(token)
        except ValueError:
            with pytest.raises(DataFormatError):
                parse_date(token)
        else:
            assert parse_date(token) == want

    def test_bad_date_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "1,1,2,0.5,1.5,100\n\nJan 2,1,2,0.5,1.5,100\n")
        with pytest.raises(DataFormatError,
                           match=r"bad\.csv: bad cell on row 4: unparseable date 'Jan 2'"):
            load_ohlcv(p)

    @pytest.mark.parametrize("date", ["1_0", "\u0661\u0662"], ids=["underscore", "arabic-indic"])
    def test_non_standard_integer_date_names_row(self, tmp_path, date):
        # int() takes both, on the one-pass route as on the row-by-row one
        p = tmp_path / "bad.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     f"1,1,2,0.5,1.5,100\n{date},1,2,0.5,1.5,100\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{p}: bad cell on row 3: unparseable date '{date}'")):
            load_ohlcv(p)

    @pytest.mark.parametrize("dates", [[" -5 ", "+5"], ["2010-01-04", " 2010-01-05 "]],
                             ids=["integer", "iso"])
    def test_signed_padded_and_iso_dates_load(self, tmp_path, dates):
        p = tmp_path / "dates.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     + "".join(f"{d},1,2,0.5,1.5,100\n" for d in dates))
        assert list(load_ohlcv(p).timesteps) == [parse_date(d) for d in dates]

    def test_first_bad_cell_wins(self, tmp_path):
        # a bad value comes before a bad date; the value's row is named
        p = tmp_path / "bad.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "1,1,2,0.5,1.5,100\n2,1,2,0.5,x,100\nJan 3,1,2,0.5,1.5,100\n")
        with pytest.raises(DataFormatError, match="row 3: .*'x'"):
            load_ohlcv(p)

    @pytest.mark.parametrize("date", ["99999999999999999999", "-9223372036854775809"])
    def test_date_beyond_int64_names_row(self, tmp_path, date):
        p = tmp_path / "bad.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     f"1,1,2,0.5,1.5,100\n{date},1,2,0.5,1.5,100\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{p}: bad cell on row 3: date '{date}' out of range")):
            load_ohlcv(p)

    def test_int64_extreme_dates_load(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     "9223372036854775807,1,2,0.5,1.5,100\n"
                     "-9223372036854775808,1,2,0.5,1.5,100\n")
        assert list(load_ohlcv(p).timesteps) == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("dates", [
        ["9", "5", "7", "5", "5"],
        ["1970-01-09", "1970-01-05", "1970-01-07", "1970-01-05", "1970-01-05"],
    ], ids=["integer", "iso"])
    def test_repeated_date_names_both_rows(self, tmp_path, dates):
        p = tmp_path / "dup.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     + "".join(f"{d},1,2,0.5,1.5,100\n" for d in dates))
        with pytest.raises(ValidationError,
                           match=re.escape(f"{p}: date {dates[1]} on row 5 repeats row 3") + "$"):
            load_ohlcv(p)

    def test_repeated_date_after_blank_row_names_csv_rows(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     '4,1,2,0.5,1.5,100\n\n"2",1,2,0.5,1.5,100\n" 4",1,2,0.5,1.5,100\n')
        with pytest.raises(ValidationError, match=r"date 4 on row 5 repeats row 2$"):
            load_ohlcv(p)

    @pytest.mark.parametrize("row", [
        "3,1,2,0.5,1.5",            # short row
        "3,1,2,0.5,1_5,100",        # float() takes it, numpy's parser does not
        '3,1,2,0.5,"1.5,100',       # quote left open at the end of the file
    ])
    def test_row_errors_name_row(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n1,1,2,0.5,1.5,100\n"
                     "2,1,2,0.5,1.5,100\n" + row + "\n")
        with pytest.raises(DataFormatError, match="bad cell on row 4"):
            load_ohlcv(p)

    @pytest.mark.parametrize("row", [
        '2,1,2,0.5,"1\n.5",100,x',      # in a value column
        '2,1,2,0.5,1.5,100,"a\nnote"',  # in a column the loader does not use
    ])
    def test_quoted_cell_spanning_lines(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text("Date,Open,High,Low,Close,Volume,Note\n"
                     f"1,1,2,0.5,1.5,100,x\n{row}\n3,1,2,0.5,1.5,100,x\n")
        with pytest.raises(DataFormatError, match="row 3: .*spans lines"):
            load_ohlcv(p)

    @pytest.mark.parametrize("bad_row, message", [
        (None, "row 4: a quoted cell spans lines"),
        ("2,1,2,0.5,oops,100,x", "row 3: could not convert string to float: 'oops'"),
        ("2,1,2,0.5,1.5,100,x\n,,,,,,\n2,1,2", "row 5: "),
        ("2,nan,2,0.5,1.5,100,x", None),
    ], ids=["spanning-only", "bad-cell-first", "short-row-after-blank-row",
            "non-finite-first"])
    def test_first_of_two_faults_named(self, tmp_path, bad_row, message):
        # a quoted cell spanning rows 4-5 (or later) ends the rows read; an
        # earlier bad row is named first
        p = tmp_path / "bad.csv"
        p.write_text("Date,Open,High,Low,Close,Volume,Note\n1,1,2,0.5,1.5,100,x\n"
                     + (bad_row or "2,1,2,0.5,1.5,100,x") + '\n9,1,2,0.5,1.5,100,"a\nb"\n')
        message = f"bad cell on {message}" if message else "non-finite open nan on row 3"
        with pytest.raises(DataFormatError, match=re.escape(f"{p}: {message}")):
            load_ohlcv(p)


    @pytest.mark.parametrize("cell, later_row, later, parse_error", [
        ("nan", 5, "4,1,2,0.5,oops,100", "could not convert string to float: 'oops'"),
        ("inf", 7, "2010-13-45,1,2,0.5,1.5,100", "unparseable date '2010-13-45'"),
    ], ids=["nan-then-bad-float", "inf-then-bad-date"])
    def test_non_finite_cell_before_a_parse_error_is_named(self, tmp_path, cell,
                                                           later_row, later, parse_error):
        # np.loadtxt reads nan and inf, so the parse fails only on the later
        # row; the file must fail as it does with the non-finite cell alone
        days = [f"2010-01-{d:02d}" if "2010" in later else str(d) for d in range(1, 8)]

        def write(name, faults):
            rows = [f"{day},1,2,0.5,1.5,100" for day in days]
            for row, text in faults.items():
                rows[row - 2] = text
            p = tmp_path / name
            p.write_text("Date,Open,High,Low,Close,Volume\n" + "\n".join(rows) + "\n")
            return p

        non_finite = {3: f"{days[1]},{cell},2,0.5,1.5,100"}
        for p in (write("alone.csv", non_finite),
                  write("both.csv", {**non_finite, later_row: later})):
            with pytest.raises(DataFormatError, match=re.escape(
                    f"{p}: non-finite open {cell} on row 3") + "$"):
                load_ohlcv(p)
        p = write("later.csv", {later_row: later})
        with pytest.raises(DataFormatError, match=re.escape(
                f"{p}: bad cell on row {later_row}: {parse_error}") + "$"):
            load_ohlcv(p)

    @pytest.mark.parametrize("text", ["Date,Open,High,Low,Close,Volume",
                                      "Date,Open,High,Low,Close,Volume\n",
                                      "Date,Open,High,Low,Close,Volume\n\n \n"],
                             ids=["no-newline", "newline", "blank-rows"])
    def test_header_only_has_no_data_rows(self, tmp_path, text):
        # np.loadtxt warns on a file with no data; that must not reach the caller
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataFormatError, match=re.escape(f"{p}: no data rows")):
                load_ohlcv(p)
        assert not caught

    @pytest.mark.parametrize("date", ["2010-W01-1", "2010W011", "2010-01", "2010-01-04T00",
                                      "NaT", "0000-01-01", "2010-02-30", "\xa05"])
    def test_loose_date_forms_name_row(self, tmp_path, date):
        # numpy's datetime64 takes 2010-01, 2010-01-04T00, NaT and year 0000,
        # and date.fromisoformat takes ISO week dates from Python 3.11 on
        p = tmp_path / "bad.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     f"2010-01-04,1,2,0.5,1.5,100\n{date},1,2,0.5,1.5,100\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(
                f"{p}: bad cell on row 3: unparseable date {date!r}") + "$"):
            load_ohlcv(p)
        with pytest.raises(DataFormatError, match=re.escape(f"unparseable date {date!r}")):
            parse_date(date)

    @pytest.mark.parametrize("date, message", [
        (" " * 30 + "7", None),
        ("0" * 30 + "7", None),
        ("9" * 30, "date '" + "9" * 30 + "' out of range"),
        ("x" * 30, "unparseable date '" + "x" * 30 + "'"),
    ], ids=["padded", "leading-zeros", "out-of-range", "letters"])
    def test_date_cell_longer_than_field(self, tmp_path, date, message):
        p = tmp_path / "long.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     f"5,1,2,0.5,1.5,100\n{date},1,2,0.5,1.5,100\n")
        if message is None:
            assert list(load_ohlcv(p).timesteps) == [5, 7]
        else:
            with pytest.raises(DataFormatError, match=re.escape(
                    f"{p}: bad cell on row 3: {message}") + "$"):
                load_ohlcv(p)

    def test_nul_byte_names_row(self, tmp_path):
        # np.loadtxt would read a date cell "5\0" as 5
        p = tmp_path / "nul.csv"
        p.write_text("Date,Open,High,Low,Close,Volume\n"
                     "4,1,2,0.5,1.5,100\n5\0,1,2,0.5,1.5,100\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{p}: row 3 holds a NUL byte")):
            load_ohlcv(p)

    def test_byte_order_mark(self, sample_csv, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + sample_csv.read_bytes())
        a, b = load_ohlcv(sample_csv), load_ohlcv(p)
        for ch in ("timesteps",) + CHANNELS:
            assert np.array_equal(getattr(a, ch), getattr(b, ch))

    @pytest.mark.parametrize("row", [1, 3])
    def test_non_utf8_names_path_and_row(self, tmp_path, row):
        lines = [b"Date,Open,High,Low,Close,Volume", b"1,1,2,0.5,1.5,100",
                 b"2,1,2,0.5,1.5,100", b"3,1,2,0.5,1.5,100"]
        lines[row - 1] += b"\xff"  # Latin-1 for y-umlaut; never valid UTF-8
        p = tmp_path / "latin.csv"
        p.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(DataFormatError,
                           match=rf"latin\.csv: row {row} is not UTF-8 .*0xff"):
            load_ohlcv(p)


def reference_date(token):
    """A date cell's day index by the documented grammar, one regex at a time."""
    token = token.strip(" \t\n\r\v\f")
    if re.fullmatch(r"[+-]?[0-9]+", token) and -2**63 <= int(token) < 2**63:
        return int(token)
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", token):
        return datetime.date.fromisoformat(token).toordinal()
    raise ValueError(f"not a date: {token!r}")


def reference_load_ohlcv(path):
    """The loader as it was before numpy's reader: csv.reader plus float()
    per cell.  Kept as the reference that load_ohlcv must match."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        colmap = {}
        for pos, name in enumerate(header):
            key = name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")
            if key in _COLUMN_ALIASES:
                colmap[_COLUMN_ALIASES[key]] = pos
        names = ("open", "high", "low", "volume", "close", "adj_close")
        cols = [colmap.get(ch, colmap["close"]) for ch in names]
        dates, rows = [], []
        for cells in reader:
            if not cells or all(not c.strip() for c in cells):
                continue
            dates.append(reference_date(cells[colmap["date"]]))
            rows.append([float(cells[pos]) for pos in cols])
    values = np.array(rows)
    order = np.argsort(dates, kind="stable")
    columns = np.ascontiguousarray(values[order].T)
    return TimeSeriesFrame(np.asarray(dates)[order], *columns).validate_prices()


FLOAT_FORMATS = [repr, "{:.6g}".format, "{:.4e}".format, "{:.2f}".format, "{:.17g}".format,
                 "{:.0f}".format]
BLANK_ROWS = ["", "   ", ",,,", " , ,\t", '"",""']
QUOTED_NOTES = ['"a, b"', '"say ""hi"""']
PLAIN_NOTES = ["x", ""]
HEADER_NAMES = {
    "date": ["Date", "date", "Timestep"],
    "open": ["Open", "OPEN"],
    "high": ["High"],
    "low": ["Low", " low "],
    "close": ["Close"],
    "volume": ["Volume"],
    "adj_close": ["Adj Close", "adj_close", "Adjusted-Close"],
}


@st.composite
def valid_ohlcv_csv(draw):
    """A valid OHLCV CSV text in one of the layouts the loader accepts."""
    n = draw(st.integers(1, 25))
    price = st.floats(-1e4, 1e4, allow_nan=False)
    ordinals = draw(st.lists(st.integers(700000, 740000), min_size=n, max_size=n,
                             unique=True))
    # every date integer, every date ISO, or each drawn
    iso_forms = draw(st.sampled_from([[False], [True], [False, True]]))
    # no quote and no blank row: the layout np.loadtxt reads at the first try
    plain = draw(st.booleans())
    fmt = draw(st.sampled_from(FLOAT_FORMATS))
    columns = ["date", "open", "high", "low", "close", "volume"]
    if draw(st.booleans()):
        columns.append("adj_close")
    columns += draw(st.lists(st.sampled_from(["ticker", "note"]), max_size=2))
    columns = draw(st.permutations(columns))
    quoted_header = draw(st.booleans())
    rows = []
    for day in ordinals:
        low = draw(price)
        cells = {
            "date": (datetime.date.fromordinal(day).isoformat()
                     if draw(st.sampled_from(iso_forms)) else str(day)),
            "open": fmt(draw(price)),
            "high": fmt(low + draw(st.floats(0, 100))),
            "low": fmt(low),
            "close": fmt(draw(price)),
            "volume": fmt(draw(st.floats(0, 1e9))),
            "adj_close": fmt(draw(price)),
            "ticker": "INTC",
            "note": draw(st.sampled_from(PLAIN_NOTES if plain else QUOTED_NOTES + PLAIN_NOTES)),
        }
        row = []
        for name in columns:
            cell = cells[name]
            if name not in ("ticker", "note") and draw(st.booleans()):
                cell = f" {cell} " if plain or draw(st.booleans()) else f'"{cell}"'
            row.append(cell)
        rows.append(",".join(row))
    for _ in range(0 if plain else draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BLANK_ROWS)))
    header = [draw(st.sampled_from(HEADER_NAMES.get(c, [c.title()]))) for c in columns]
    header = ",".join(f'"{name}"' if quoted_header else name for name in header)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header] + rows) + draw(st.sampled_from(["", newline]))


def _assert_same_frame(got, want):
    for ch in ("timesteps",) + CHANNELS:
        a, b = getattr(got, ch), getattr(want, ch)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), ch
        assert a.flags.c_contiguous


class TestReferenceLoader:
    @given(text=valid_ohlcv_csv())
    # about half the examples are plain, so 200 keeps the quoted and
    # blank-row layouts at about 100 examples
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prices.csv")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            _assert_same_frame(load_ohlcv(path), reference_load_ohlcv(path))

    def test_date_after_integer_cells_matches_reference_loader(self, tmp_path):
        # an integer cell before the date must not be read as the date
        path = tmp_path / "prices.csv"
        path.write_text("Volume,Open,Date,High,Low,Close\n"
                        "300,21,9,22,20,21\n100,20,3,21,19,20\n200,22,6,23,21,22\n")
        frame = load_ohlcv(path)
        assert list(frame.timesteps) == [3, 6, 9]
        _assert_same_frame(frame, reference_load_ohlcv(path))

    def test_signed_zero_and_tab_padded_dates_take_one_pass(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("Date,Open,High,Low,Close,Volume\n"
                        "+7,1,2,0.5,1.5,100\n008,1,2,0.5,1.5,100\n\t6\t,1,2,0.5,1.5,100\n")
        frame = load_ohlcv(path)
        assert list(frame.timesteps) == [6, 7, 8]
        _assert_same_frame(frame, reference_load_ohlcv(path))

    def test_quoted_header_keeps_one_pass(self, tmp_path):
        path = tmp_path / "prices.csv"
        frame_to_csv(synthetic_ohlcv_frame(300, seed=16, noise_std=0.01)[0], path)
        header, body = path.read_text().split("\n", 1)
        quoted = ",".join(f'"{name}"' for name in header.split(","))
        path.write_text(quoted + "\n" + body)
        _assert_same_frame(load_ohlcv(path), reference_load_ohlcv(path))

        first, rest = body.split(",", 1)
        path.write_text(quoted + "\n" + f'"{first}",' + rest)
        _assert_same_frame(load_ohlcv(path), reference_load_ohlcv(path))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("empty_lines", [1, 2])
    def test_trailing_empty_lines_keep_one_pass(self, tmp_path, newline, empty_lines):
        path = tmp_path / "prices.csv"
        frame_to_csv(synthetic_ohlcv_frame(300, seed=16, noise_std=0.01)[0], path)
        lines = path.read_text().splitlines() + [""] * (empty_lines + 1)
        path.write_bytes(newline.join(lines).encode("utf-8"))
        frame = load_ohlcv(path)
        assert len(frame.timesteps) == 300
        _assert_same_frame(frame, reference_load_ohlcv(path))

    def test_mixed_integer_and_iso_dates_match_reference_loader(self, tmp_path):
        path = tmp_path / "prices.csv"
        frame_to_csv(synthetic_ohlcv_frame(300, seed=16, noise_std=0.01)[0], path)
        header, *rows = path.read_text().splitlines()
        rows = [datetime.date.fromordinal(int(row.split(",", 1)[0])).isoformat()
                + "," + row.split(",", 1)[1] if i % 3 else row for i, row in enumerate(rows)]
        path.write_text("\n".join([header] + rows) + "\n")
        frame = load_ohlcv(path)
        assert len(frame) == 300
        _assert_same_frame(frame, reference_load_ohlcv(path))

    def test_quoted_row_beside_quoted_blank_row(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text('Date,Open,High,Low,Close,Volume\n'
                        '"2010-01-05","1","2","0.5","1.5","100"\n"",""\n'
                        '"2010-01-04",1,2,0.5,1.5,"200"\n')
        frame = load_ohlcv(path)
        assert list(frame.volume) == [200, 100]
        _assert_same_frame(frame, reference_load_ohlcv(path))

    @pytest.mark.parametrize("iso", [False, True], ids=["integer", "iso"])
    def test_benchmark_sized_file_matches_reference_loader(self, tmp_path, iso):
        path = tmp_path / "prices.csv"
        frame_to_csv(synthetic_ohlcv_frame(5000, seed=16, noise_std=0.01)[0], path)
        if iso:
            rows = [line.split(",", 1) for line in path.read_text().splitlines()]
            path.write_text("\n".join([",".join(rows[0])] + [
                datetime.date.fromordinal(int(day)).isoformat() + "," + rest
                for day, rest in rows[1:]]) + "\n")
        _assert_same_frame(load_ohlcv(path), reference_load_ohlcv(path))


def reference_apply(spec, values, channel):
    """The map as written before it divided first: it scales, then divides."""
    mn, mx = spec.ranges[channel]
    return NORM_LO + (np.asarray(values, dtype=float) - mn) * (NORM_HI - NORM_LO) / (mx - mn)


def reference_invert(spec, values, channel):
    mn, mx = spec.ranges[channel]
    return mn + (np.asarray(values, dtype=float) - NORM_LO) * (mx - mn) / (NORM_HI - NORM_LO)


def _assert_maps_match_reference(spec, channel, values):
    for got, want in ((spec.apply_values(values, channel), reference_apply(spec, values, channel)),
                      (spec.invert_values(values, channel), reference_invert(spec, values, channel))):
        assert np.array_equal(got, want)


class TestFrameConstructor:
    def test_sequences_become_int64_and_float64_columns(self):
        frame = TimeSeriesFrame(**TABLE_ROWS)
        assert frame.timesteps.dtype == np.int64
        for name in CHANNELS:
            assert frame.channel(name).dtype == np.float64, name
            assert np.array_equal(frame.channel(name), TABLE_ROWS[name]), name

    def test_omitted_adj_close_is_a_copy_of_close(self):
        close = np.array([1.0, 2.0, 3.0])
        frame = TimeSeriesFrame([1, 2, 3], open=close, high=close, low=close,
                                volume=close, close=close)
        assert np.array_equal(frame.adj_close, frame.close)
        assert not np.shares_memory(frame.adj_close, frame.close)

    def test_float64_column_is_kept(self):
        days, close = np.arange(3, dtype=np.int64), np.array([1.0, 2.0, 3.0])
        frame = TimeSeriesFrame(days, close, close, close, close, close, close)
        assert np.shares_memory(frame.timesteps, days)
        for name in CHANNELS:
            assert np.shares_memory(frame.channel(name), close), name

    @pytest.mark.parametrize("columns, message", [
        ((5, 1, 1, 1, 1, 1), "column 'timesteps' of shape () is not 1-D"),
        (([1, 2], [[1, 2], [3, 4]], [2, 2], [1, 1], [1, 1], [1, 2]),
         "column 'open' of shape (2, 2) is not 1-D"),
    ], ids=["scalar", "two-dimensional"])
    def test_column_that_is_not_1d_rejected(self, columns, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            TimeSeriesFrame(*columns)


BAD_RANGES = {
    "constant": (5.0, 5.0), "reversed": (6.0, 5.0), "nan-min": (np.nan, 5.0),
    "nan-max": (5.0, np.nan), "infinite-min": (-np.inf, 5.0), "infinite-max": (5.0, np.inf),
    "overflowing-width": (-1.7e308, 1.7e308),
    "numpy-overflowing-width": (np.float64(-1.7e308), np.float64(1.7e308)),
}


class TestNormalizationRules:
    def test_divide_first_matches_reference_on_random_ranges(self):
        # scaling by NORM_HI - NORM_LO = 2 is exact, so dividing first gives the same bits
        rng = np.random.default_rng(2021)
        for _ in range(400):
            width = 10.0 ** rng.uniform(-5, 9)
            mn = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-5, 9)
            spec = NormalizationSpec({"close": (mn, mn + width)})
            mn, mx = spec.ranges["close"]
            values = np.concatenate([[mn, mx], rng.uniform(mn - width, mx + width, 200)])
            _assert_maps_match_reference(spec, "close", values)
            _assert_maps_match_reference(spec, "close", rng.uniform(-1.5, 1.5, 200))

    @pytest.mark.parametrize("rows, seed, noise_std", [(220, 99, 0.02), (1065, 16, 0.01),
                                                       (5000, 16, 0.01)],
                             ids=["ci", "benchmark", "benchmark-score"])
    def test_divide_first_matches_reference_on_fitted_specs(self, rows, seed, noise_std):
        frame, _ = synthetic_ohlcv_frame(rows, seed=seed, noise_std=noise_std)
        spec = fit_normalization(frame, CHANNELS, fit_rows=rows * 7 // 10)
        for ch in CHANNELS:
            _assert_maps_match_reference(spec, ch, frame.channel(ch))
            _assert_maps_match_reference(spec, ch, spec.apply_values(frame.channel(ch), ch))

    def test_extreme_finite_range_does_not_overflow(self):
        spec = NormalizationSpec({"volume": (1e3, 1.7e308)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = spec.apply_values([1e3, 1e308, 1.7e308], "volume")
            back = spec.invert_values(norm, "volume")
        assert norm[0] == -1.0 and norm[2] == 1.0 and -1.0 < norm[1] < 1.0
        assert np.isfinite(back).all() and back[2] == 1.7e308

    def test_value_too_far_outside_its_range_rejected(self):
        # -5e307 maps to a finite -7; -1.7e308 - 1e308 overflows to -inf
        spec = NormalizationSpec({"close": (20.0, 22.0), "open": (1e308, 1.5e308)})
        message = re.escape("channel 'open' has a value too far outside its range"
                            " [1e+308, 1.5e+308] to normalize")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spec.apply_values([-5e307], "open")[0] == pytest.approx(-7.0)
            with pytest.raises(ValidationError, match=message):
                spec.apply_values([1.2e308, -1.7e308], "open")

    @pytest.mark.parametrize("mn, mx", BAD_RANGES.values(), ids=BAD_RANGES.keys())
    def test_bad_range_rejected_however_built(self, mn, mx):
        message = re.escape(f"channel 'open' has no usable range [{mn}, {mx}]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                NormalizationSpec({"close": (20.0, 22.0), "open": (mn, mx)})
            with pytest.raises(ValidationError, match=message):
                NormalizationSpec.from_dict(
                    {"lo": -1.0, "hi": 1.0, "ranges": {"open": [mn, mx], "close": [20.0, 22.0]}})

    def test_fit_rejects_a_range_wider_than_a_float(self):
        frame = TimeSeriesFrame(
            timesteps=[1, 2, 3], open=[1.7e308, 5.0, -1.7e308], high=[6, 6, 6], low=[4, 4, 4],
            volume=[1, 2, 3], close=[1, 2, 3])
        message = re.escape("channel 'open' has no usable range [-1.7e+308, 1.7e+308]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                fit_normalization(frame, ["close", "open"])


class TestNormalization:
    def test_midpoint_symmetry(self):
        frame = TimeSeriesFrame(
            timesteps=[1, 2, 3], open=[0, 5, 10], high=[1, 6, 11],
            low=[0, 5, 10], volume=[1, 1, 1], close=[0, 5, 10])
        spec = fit_normalization(frame, ["open"])
        out = spec.apply_values([0, 5, 10], "open")
        assert np.allclose(out, [-1, 0, 1])

    def test_symmetric_range(self):
        frame = TimeSeriesFrame(
            timesteps=[1, 2], open=[-3, 3], high=[3, 4], low=[-4, 3],
            volume=[1, 1], close=[-3, 3])
        spec = fit_normalization(frame, ["close"])
        assert np.allclose(spec.apply_values([-3, 0, 3], "close"), [-1, 0, 1])
        assert np.allclose(spec.apply_values([1.5], "close"), [0.5])

    def test_sample_close_column(self, sample_frame):
        spec = fit_normalization(sample_frame, ["close"])
        mn, mx = spec.ranges["close"]
        assert mn == 20.66 and mx == 21.15
        assert spec.apply_values([20.66], "close")[0] == -1.0
        assert spec.apply_values([21.15], "close")[0] == 1.0
        # independent affine evaluation
        expected = -1 + (20.85 - 20.66) * 2 / (21.15 - 20.66)
        assert np.isclose(spec.apply_values([20.85], "close")[0], expected, rtol=1e-14)

    def test_out_of_range_not_clamped(self, sample_frame):
        spec = fit_normalization(sample_frame, ["close"])
        expected = -1 + (25.0 - 20.66) * 2 / (21.15 - 20.66)
        got = spec.apply_values([25.0], "close")[0]
        assert got > 1.0
        assert np.isclose(got, expected, rtol=1e-14)

    def test_round_trip_on_sample(self, sample_frame):
        spec = fit_normalization(sample_frame, ["close", "volume"])
        norm = apply_normalization(sample_frame, spec)
        back = spec.invert_values(norm.close, "close")
        assert np.allclose(back, sample_frame.close, rtol=1e-12)

    def test_constant_channel_error(self):
        frame = TimeSeriesFrame(
            timesteps=[1, 2], open=[5, 5], high=[6, 6], low=[4, 4],
            volume=[1, 2], close=[1, 2])
        with pytest.raises(ValidationError,
                           match=re.escape("channel 'open' has no usable range [5.0, 5.0]")):
            fit_normalization(frame, ["open"])

    def test_unknown_channel_error(self, sample_frame):
        spec = fit_normalization(sample_frame, ["close"])
        with pytest.raises(KeyError):
            spec.apply_values([1.0], "open")
        with pytest.raises(KeyError):
            spec.invert_values([0.0], "volume")

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50).filter(
        lambda v: max(v) - min(v) > 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, values):
        n = len(values)
        frame = TimeSeriesFrame(
            timesteps=np.arange(n), open=values, high=np.ones(n),
            low=np.zeros(n), volume=np.ones(n), close=values)
        spec = fit_normalization(frame, ["open"])
        back = spec.invert_values(spec.apply_values(values, "open"), "open")
        scale = max(abs(min(values)), abs(max(values)))
        assert np.allclose(back, values, rtol=1e-12, atol=1e-12 * scale)


class TestPrepareDelayed:
    def test_five_rows_two_lags(self, sample_frame):
        ds = prepare_delayed(sample_frame, d_u=(1, 2), d_y=(1, 2))
        assert ds.n_samples == 3
        assert ds.first_usable_index == 2  # first target is the 3rd data point
        assert ds.T[0] == sample_frame.close[2]

    def test_minimal_lags(self, sample_frame):
        ds = prepare_delayed(sample_frame, d_u=(0,), d_y=(1,))
        assert ds.n_samples == len(sample_frame) - 1
        # regressor is the current exogenous row plus previous close
        assert ds.X[0, 0] == sample_frame.open[1]
        assert ds.Y_hist[0, 0] == sample_frame.close[0]

    def test_sample_pairing(self, sample_frame):
        ds = prepare_delayed(sample_frame, d_u=(0, 1), d_y=(1,))
        # sample for timestep 734508 is index 1 (first usable is 734507)
        k = 1
        assert sample_frame.timesteps[ds.first_usable_index + k] == 734508
        # column order: (channel, lag) with channels open, high, low, volume
        assert ds.X[k, 0] == 21.19   # open lag 0 (row 734508)
        assert ds.X[k, 1] == 21.12   # open lag 1 (row 734507)
        assert ds.X[k, 2] == 21.21   # high lag 0
        assert ds.X[k, 3] == 21.2    # high lag 1
        assert ds.Y_hist[k, 0] == 21.15  # close(734507)
        assert ds.T[k] == 20.94

    def test_insufficient_data(self, sample_frame):
        with pytest.raises(InsufficientDataError):
            prepare_delayed(sample_frame, d_u=(0,), d_y=(5,))

    def test_lag_zero_feedback_rejected(self, sample_frame):
        with pytest.raises(ValidationError, match="lag"):
            prepare_delayed(sample_frame, d_u=(0,), d_y=(0, 1))

    def test_empty_lag_set_rejected(self, sample_frame):
        with pytest.raises(ValidationError):
            prepare_delayed(sample_frame, d_u=(), d_y=(1,))

    def test_brute_force_lag_values(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            frame = random_frame(rng, n)
            n_lags = int(rng.integers(1, 4))
            d_u = tuple(sorted(rng.choice(6, size=n_lags, replace=False)))
            d_y = tuple(sorted(rng.choice(np.arange(1, 6), size=n_lags,
                                          replace=False)))
            chans = ("open", "volume")
            ds = prepare_delayed(frame, d_u, d_y, chans)
            first = ds.first_usable_index
            for s in range(ds.n_samples):
                k = first + s
                col = 0
                for ch in chans:
                    raw = frame.channel(ch)
                    for lag in ds.d_u:
                        assert ds.X[s, col] == raw[k - lag]
                        col += 1
                for j, lag in enumerate(ds.d_y):
                    assert ds.Y_hist[s, j] == frame.close[k - lag]
                assert ds.T[s] == frame.close[k]


class TestSplitIndices:
    def test_paper_ratios(self):
        tr, va, te = split_indices(100)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)
        assert tr[-1] + 1 == va[0] and va[-1] + 1 == te[0]

    def test_minimal(self):
        # 70/15/15 of 3 rounds to 2/1/0; the empty test block takes one sample
        tr, va, te = split_indices(3)
        assert (len(tr), len(va), len(te)) == (1, 1, 1)

    def test_largest_remainder(self):
        # exact sizes 7.0/1.5/1.5; the leftover goes to the earlier tied block
        tr, va, te = split_indices(10)
        assert (len(tr), len(va), len(te)) == (7, 2, 1)

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            split_indices(2)

    @given(st.integers(3, 2000))
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, n):
        tr, va, te = split_indices(n)
        joined = np.concatenate([tr, va, te])
        assert np.array_equal(joined, np.arange(n))
        assert min(len(tr), len(va), len(te)) >= 1
        if n >= 7:  # below this, keeping blocks non-empty dominates rounding
            for block, ratio in zip((tr, va, te), (0.70, 0.15, 0.15)):
                assert abs(len(block) - ratio * n) <= 1
