from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest

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

    def test_values_are_read_only(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


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
        assert loaded.timestamps == climate.timestamps
        np.testing.assert_array_equal(loaded.values, climate.values)


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
