from __future__ import annotations

import csv
import math
import re
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakbench.errors import DataError
from leakbench.series import (
    TimeSeries,
    describe,
    load_csv,
    seasonal_decompose,
    write_csv,
)

from conftest import make_series


class TestTimeSeriesInvariants:
    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            TimeSeries("x", (date(2020, 1, 1),), np.array([1.0, 2.0]))

    def test_rejects_two_dimensional_timestamps(self):
        with pytest.raises(DataError, match="timestamps must be one-dimensional"):
            TimeSeries("x", [["2020-01-01"], ["2020-01-02"]], np.array([1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries("x", (), np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            make_series([1.0, np.nan, 3.0])

    def test_rejects_out_of_order_timestamps(self):
        with pytest.raises(DataError, match="strictly increasing"):
            TimeSeries(
                "x",
                (date(2020, 1, 2), date(2020, 1, 1)),
                np.array([1.0, 2.0]),
            )

    def test_rejects_repeated_timestamps(self):
        with pytest.raises(DataError, match=r"strictly increasing at position 2 "
                                            r"\(2020-01-02 -> 2020-01-02\)"):
            TimeSeries("x", ["2020-01-01", "2020-01-02", "2020-01-02"], np.zeros(3))

    def test_rejects_missing_timestamp(self):
        with pytest.raises(DataError, match="missing timestamp at position 1"):
            TimeSeries("x", np.array(["2020-01-01", "NaT"], dtype="datetime64[D]"), np.zeros(2))

    def test_timestamps_are_a_day_array(self):
        s = TimeSeries("x", (date(2020, 1, 1), date(2020, 1, 3)), np.array([1.0, 2.0]))
        assert s.timestamps.dtype == np.dtype("datetime64[D]")
        assert s.timestamps.tolist() == [date(2020, 1, 1), date(2020, 1, 3)]

    def test_values_are_read_only(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_timestamps_are_read_only_copies(self):
        stamps = np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")
        s = TimeSeries("x", stamps, np.array([1.0, 2.0]))
        stamps[0] = np.datetime64("2021-01-01")
        assert str(s.timestamps[0]) == "2020-01-01"
        with pytest.raises(ValueError):
            s.timestamps[0] = np.datetime64("2019-01-01")


class TestLoadCsv:
    def test_simple_three_row_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,v\n2013-01-01,1\n2013-01-02,2\n2013-01-03,3\n")
        s = load_csv(p, value_column="v")
        assert len(s) == 3
        assert list(s.values) == [1.0, 2.0, 3.0]
        assert s.timestamps[0] == date(2013, 1, 1)

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM
        p = tmp_path / "excel.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,meantemp\r\n2013-01-01,10.0\r\n2013-01-02,7.4\r\n")
        s = load_csv(p, value_column="meantemp")
        assert list(s.values) == [10.0, 7.4]
        assert s.timestamps[0] == date(2013, 1, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", value_column="v")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("date,v\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, value_column="v")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,other\n2013-01-01,1\n")
        with pytest.raises(DataError, match="missing column 'v'"):
            load_csv(p, value_column="v")

    def test_unparseable_row_reports_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,v\n2013-01-01,1\n2013-01-02,oops\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p, value_column="v")

    def test_line_number_is_the_file_line(self, tmp_path):
        # counting non-blank rows instead gave lines 3, 3 and 4
        p = tmp_path / "t.csv"
        p.write_text("date,v\n2013-01-01,1.0\n\n2013-01-03,x\n")
        with pytest.raises(DataError, match="line 4: cannot parse row"):
            load_csv(p, value_column="v")
        p.write_text("date,v\n2013-01-01,1.0\n\n2013-01-03,nan\n")
        with pytest.raises(DataError, match="line 4: non-finite value 'nan'"):
            load_csv(p, value_column="v")
        # a quoted field spanning lines 4-5 before the bad row on line 6
        p.write_text('date,v\n2013-01-01,1.0\n\n2013-01-02,"2.0\n"\n2013-01-03,x\n')
        with pytest.raises(DataError, match="line 6: cannot parse row"):
            load_csv(p, value_column="v")

    def test_short_row_reads_missing_field_as_empty(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,v\n2013-01-01,1\n2013-01-02\n")
        with pytest.raises(DataError, match="line 3: cannot parse row: could not convert "
                                            "string to float: ''"):
            load_csv(p, value_column="v")

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("v,date,v\n9,2013-01-01,1\n9,2013-01-02,2\n")
        assert load_csv(p, value_column="v").values.tolist() == [1.0, 2.0]

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,v\n2013-01-01,1\n2013-01-02,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p, value_column="v")

    def test_duplicate_dates_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,v\n2013-01-01,1\n2013-01-01,2\n")
        with pytest.raises(DataError, match="duplicate date"):
            load_csv(p, value_column="v")

    def test_rows_sorted_by_date(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("date,v\n2013-01-03,3\n2013-01-01,1\n2013-01-02,2\n")
        s = load_csv(p, value_column="v")
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_reference_dataset_count(self, tmp_path, climate):
        p = write_csv(climate, tmp_path / "climate.csv")
        loaded = load_csv(p, value_column="meantemp")
        assert len(loaded) == 1462

    def test_round_trip_identity(self, tmp_path, climate):
        p = write_csv(climate, tmp_path / "rt.csv")
        loaded = load_csv(p, value_column="meantemp")
        assert np.array_equal(loaded.timestamps, climate.timestamps)
        np.testing.assert_array_equal(loaded.values, climate.values)


def dictreader_load_csv(path, value_column, date_column="date"):
    """The csv.DictReader loader that load_csv replaced, kept as its oracle:
    (dates, values) of the sorted rows, or the DataError it raised."""
    p = Path(path)
    rows = []
    with open(p, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{p}: no data rows")
        for col in (date_column, value_column):
            if col not in reader.fieldnames:
                raise DataError(f"{p}: missing column '{col}' (have {reader.fieldnames})")
        for line_no, row in enumerate(reader, start=2):
            raw_date = (row.get(date_column) or "").strip()
            raw_value = (row.get(value_column) or "").strip()
            try:
                stamp = date.fromisoformat(raw_date)
                value = float(raw_value)
            except (TypeError, ValueError) as exc:
                raise DataError(f"{p}: line {line_no}: cannot parse row: {exc}") from exc
            if not math.isfinite(value):
                raise DataError(f"{p}: line {line_no}: non-finite value {raw_value!r}")
            rows.append((stamp, value))
    if not rows:
        raise DataError(f"{p}: no data rows")
    rows.sort(key=lambda item: item[0])
    for (d0, _), (d1, _) in zip(rows, rows[1:]):
        if d0 == d1:
            raise DataError(f"{p}: duplicate date {d1.isoformat()}")
    return [d for d, _ in rows], [v for _, v in rows]


_NAMES = st.sampled_from(["date", "v", "x", " v", "date "])
_DATES = st.sampled_from([f"2013-01-{day:02d}" for day in range(1, 29)] + [
    "2012-12-31", " 2013-02-01 ", "20130202"])
_VALUES = st.sampled_from(["1", "2.5", "-0.0", " 3 ", "1e308", "0.1", "-7"])
_ODD = st.sampled_from(["", "2013-1-5", "x", "nan", "-inf", "1e309", "a,b", 'q"q'])


@st.composite
def csv_texts(draw):
    """CSV text a loader may meet: a BOM, blank rows, quoted fields (some
    across two lines), short and long rows, repeated or padded header
    names, and dates out of order or repeated. Most rows parse, so that
    the sort and the duplicate check are reached."""
    def line(fields):
        return ",".join(
            '"' + f.replace('"', '""') + '"'
            if draw(st.booleans()) or any(c in f for c in ',"\n') else f
            for f in fields)

    header = draw(st.lists(_NAMES, max_size=3))
    for name in ("date", "v"):
        if draw(st.integers(0, 9)):
            header.insert(draw(st.integers(0, len(header))), name)
    lines = [line(header)]
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank row
            continue
        fields = [draw(_ODD) if draw(st.integers(0, 29)) == 0
                  else draw(_DATES if name == "date" else _VALUES) for name in header]
        fields = fields[:draw(st.integers(0, len(fields)))] if draw(st.integers(0, 9)) == 0 \
            else fields + draw(st.lists(_VALUES, max_size=2))
        if fields and draw(st.integers(0, 9)) == 0:
            fields[0] += "\n"  # a quoted field across two lines
        lines.append(line(fields) if fields else '""')
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + newline * draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_load_csv_matches_the_dictreader_loader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("oracle") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = dictreader_load_csv(path, "v")
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_csv(path, "v")
        line = re.compile(r"line \d+")
        assert line.sub("line N", str(got.value)) == line.sub("line N", str(exc))
        return
    series = load_csv(path, "v")
    dates, values = expected
    assert np.array_equal(series.timestamps, np.array(dates, dtype="datetime64[D]"))
    assert series.values.tobytes() == np.array(values, dtype=float).tobytes()


class TestDescribe:
    def test_reference_profile(self, climate):
        st = describe(climate)
        assert st.count == 1462
        assert st.mean == pytest.approx(25.5, abs=0.01)
        assert st.std == pytest.approx(7.35, abs=0.01)
        assert st.min == pytest.approx(6.00, abs=0.01)
        assert st.max == pytest.approx(38.71, abs=0.01)
        assert st.min <= st.median <= st.max

    def test_constant_series(self):
        st = describe(make_series([5.0, 5.0, 5.0]))
        assert st.mean == 5.0
        assert st.std == 0.0
        assert st.min == st.median == st.max == 5.0

    def test_even_length_median_is_midpoint(self):
        st = describe(make_series([1.0, 2.0, 3.0, 4.0]))
        assert st.median == 2.5

    def test_single_point(self):
        st = describe(make_series([7.0]))
        assert st.count == 1
        assert st.std == 0.0

    def test_mean_std_permutation_invariant(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=40)
        a = describe(make_series(vals))
        b = describe(make_series(vals[rng.permutation(40)]))
        assert a.mean == pytest.approx(b.mean, abs=1e-12)
        assert a.std == pytest.approx(b.std, abs=1e-12)
        assert a.median == b.median
        assert (a.min, a.max) == (b.min, b.max)


class TestSeasonalDecompose:
    def test_pure_sine_recovered(self):
        # Period-12 sine over 10 cycles: zero trend, seasonal equals the sine
        # on interior points.
        t = np.arange(120)
        x = np.sin(2 * np.pi * t / 12)
        dec = seasonal_decompose(make_series(x), period=12)
        interior = slice(6, 120 - 6)
        np.testing.assert_allclose(dec.trend[interior], 0.0, atol=1e-6)
        np.testing.assert_allclose(dec.seasonal[interior], x[interior], atol=1e-6)

    def test_linear_ramp_no_seasonality(self):
        x = np.linspace(0.0, 10.0, 70)
        dec = seasonal_decompose(make_series(x), period=7)
        assert np.max(np.abs(dec.seasonal)) < 1e-9
        interior = slice(3, 70 - 3)
        np.testing.assert_allclose(dec.trend[interior], x[interior], atol=1e-9)

    def test_constant_series(self):
        dec = seasonal_decompose(make_series(np.full(30, 4.0)), period=6)
        valid = ~np.isnan(dec.trend)
        np.testing.assert_allclose(dec.trend[valid], 4.0, atol=1e-12)
        np.testing.assert_allclose(dec.seasonal, 0.0, atol=1e-12)
        np.testing.assert_allclose(dec.residual[valid], 0.0, atol=1e-12)

    def test_too_short_series(self):
        with pytest.raises(DataError, match="too short"):
            seasonal_decompose(make_series(np.arange(13.0)), period=7)

    def test_reconstruction_identity(self, climate):
        dec = seasonal_decompose(climate, period=365)
        valid = ~np.isnan(dec.trend)
        recon = dec.trend[valid] + dec.seasonal[valid] + dec.residual[valid]
        np.testing.assert_allclose(recon, climate.values[valid], atol=1e-9)

    def test_seasonal_profile_sums_to_zero(self, climate):
        dec = seasonal_decompose(climate, period=365)
        profile_sum = abs(float(np.sum(dec.seasonal[:365])))
        std = float(climate.values.std(ddof=1))
        assert profile_sum < 1e-6 * 365 * std

    def test_even_period_edges_are_nan(self):
        dec = seasonal_decompose(make_series(np.arange(40.0)), period=4)
        assert math.isnan(dec.trend[0]) and math.isnan(dec.trend[1])
        assert math.isnan(dec.trend[-1]) and math.isnan(dec.trend[-2])
        assert not math.isnan(dec.trend[2])
