import calendar
import io
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcast.errors import (
    DuplicateTimestampError,
    FrequencyError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    SeriesTooShortError,
)
from agentcast.models import get_model
from agentcast.panel import (
    Frequency,
    Series,
    SeriesPanel,
    frames_to_csv,
    future_grid,
    infer_frequency,
    parse_panel,
    _add_months,
    _grid_point,
    _matches_grid,
    train_test_split,
)

from conftest import make_panel, parse_csv_text


def ts(*args):
    return datetime(*args)


class TestInferFrequency:
    def test_monthly(self):
        f = infer_frequency([ts(2020, 1, 1), ts(2020, 2, 1), ts(2020, 3, 1)])
        assert f.unit == "M" and f.season_length == 12

    def test_daily(self):
        f = infer_frequency([ts(2020, 1, 1), ts(2020, 1, 2), ts(2020, 1, 3)])
        assert f.unit == "D" and f.season_length == 7

    def test_irregular_spacing(self):
        with pytest.raises(FrequencyError):
            infer_frequency([ts(2020, 1, 1), ts(2020, 1, 5), ts(2020, 2, 1)])

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            infer_frequency([ts(2020, 1, 1), ts(2020, 2, 1)])

    def test_quarterly_yearly_weekly_hourly(self):
        assert infer_frequency([ts(2020, 1, 1), ts(2020, 4, 1), ts(2020, 7, 1)]).unit == "Q"
        assert infer_frequency([ts(2018, 6, 30), ts(2019, 6, 30), ts(2020, 6, 30)]).unit == "Y"
        assert infer_frequency([ts(2020, 1, 6), ts(2020, 1, 13), ts(2020, 1, 20)]).unit == "W"
        assert infer_frequency([ts(2020, 1, 1, 0), ts(2020, 1, 1, 1), ts(2020, 1, 1, 2)]).unit == "H"

    def test_month_end_grid(self):
        f = infer_frequency([ts(2020, 1, 31), ts(2020, 2, 29), ts(2020, 3, 31)])
        assert f.unit == "M"

    def test_self_consistency_on_future_grids(self):
        # infer_frequency recovers the generating frequency from any grid
        rng = np.random.default_rng(7)
        anchors = [ts(1999, 12, 31), ts(2020, 2, 29), ts(2001, 7, 15, 13), ts(2010, 1, 1)]
        for unit in "YQMWDH":
            for anchor in anchors:
                h = int(rng.integers(3, 40))
                grid = future_grid(anchor, Frequency(unit), h)
                assert infer_frequency(grid).unit == unit


class TestFutureGrid:
    def test_monthly_continuation(self):
        grid = future_grid(ts(1960, 12, 1), Frequency("M"), 3)
        assert grid == [ts(1961, 1, 1), ts(1961, 2, 1), ts(1961, 3, 1)]

    def test_daily_leap_year(self):
        grid = future_grid(ts(2020, 2, 28), Frequency("D"), 2)
        assert grid == [ts(2020, 2, 29), ts(2020, 3, 1)]

    def test_yearly(self):
        assert future_grid(ts(2019, 12, 31), Frequency("Y"), 1) == [ts(2020, 12, 31)]

    def test_month_end_clamping_keeps_anchor_day(self):
        grid = future_grid(ts(2020, 1, 31), Frequency("M"), 3)
        assert grid == [ts(2020, 2, 29), ts(2020, 3, 31), ts(2020, 4, 30)]

    def test_length_and_monotone(self):
        for unit in "YQMWDH":
            grid = future_grid(ts(2020, 5, 17), Frequency(unit), 25)
            assert len(grid) == 25
            assert all(b > a for a, b in zip(grid, grid[1:]))
            assert grid[0] > ts(2020, 5, 17)


def monthrange_add_months(anchor, months, day):
    """Reference month step, clamping through ``calendar.monthrange``."""
    month_index = anchor.month - 1 + months
    year, month = anchor.year + month_index // 12, month_index % 12 + 1
    return anchor.replace(
        year=year, month=month, day=min(day, calendar.monthrange(year, month)[1])
    )


class TestMonthArithmetic:
    ANCHORS = [ts(1900, 1, d) for d in (28, 29, 30, 31)] + [ts(1900, 2, 28), ts(1904, 2, 29, 6)]

    def test_month_steps_match_monthrange(self):
        for anchor in self.ANCHORS:
            for day in sorted({anchor.day, 28, 29, 30, 31}):
                for months in range(12 * 201):
                    assert _add_months(anchor, months, day) == monthrange_add_months(
                        anchor, months, day
                    )

    def test_month_based_grids_match_monthrange(self):
        for anchor in self.ANCHORS:
            for unit, step in (("M", 1), ("Q", 3), ("Y", 12)):
                n = 12 * 201 // step
                want = [monthrange_add_months(anchor, step * i, anchor.day) for i in range(n)]
                assert future_grid(anchor, Frequency(unit), n - 1) == want[1:]
                assert _matches_grid(want, Frequency(unit))
                moved = want[:5] + [want[5] - timedelta(days=1)] + want[6:]
                assert not _matches_grid(moved, Frequency(unit))


class TestSharedMonthGrids:
    """A panel checks each series against one grid per (anchor, anchor day,
    step), built once and compared by prefix."""

    @staticmethod
    def stamps(anchor, day, n):
        return tuple(monthrange_add_months(anchor, i, day) for i in range(n))

    def mixed_anchor_series(self):
        jan31, feb28, jan15 = ts(2019, 1, 31), ts(2021, 2, 28), ts(2020, 1, 15)
        # Short series before long ones that share their anchor, so the
        # shared grid is extended; Feb 28 anchors both day 28 and day 31.
        return {
            "a_short": self.stamps(jan31, 31, 5),
            "b_long": self.stamps(jan31, 31, 40),
            "c_mid": self.stamps(jan31, 31, 17),
            "d_feb28": self.stamps(feb28, 28, 30),
            "e_feb_end": self.stamps(feb28, 31, 30),
            "f_mid_month": self.stamps(jan15, 15, 26),
        }

    def test_mixed_anchors_accepted(self):
        series = {
            key: Series(stamps, np.arange(len(stamps), dtype=float))
            for key, stamps in self.mixed_anchor_series().items()
        }
        panel = SeriesPanel(series, Frequency("M"))
        assert panel.keys() == sorted(series)
        for key, s in series.items():
            assert _matches_grid(s.timestamps, Frequency("M"))  # on its own grid too
            assert panel[key].timestamps == s.timestamps

    @pytest.mark.parametrize("bad", ["a_short", "b_long", "c_mid", "e_feb_end"])
    def test_off_grid_series_is_named(self, bad):
        series = {}
        for key, stamps in self.mixed_anchor_series().items():
            if key == bad:
                i = len(stamps) - 2
                stamps = stamps[:i] + (stamps[i] - timedelta(days=1),) + stamps[i + 1:]
            series[key] = Series(stamps, np.zeros(len(stamps)))
        with pytest.raises(FrequencyError, match=f"series '{bad}'"):
            SeriesPanel(series, Frequency("M"))
        assert not _matches_grid(series[bad].timestamps, Frequency("M"))

    def test_long_off_grid_series_builds_no_grid_past_year_9999(self):
        # 10,000 daily points on a yearly grid would reach year 12019
        stamps = [ts(2020, 1, 1) + timedelta(days=i) for i in range(10_000)]
        with pytest.raises(FrequencyError, match="yearly grid"):
            SeriesPanel({"d": Series(tuple(stamps), np.zeros(10_000))}, Frequency("Y"))
        stamps[5000] += timedelta(hours=1)
        with pytest.raises(FrequencyError, match="do not lie on any"):
            infer_frequency(stamps)


class TestParsePanel:
    def test_air_passengers(self, air_passengers):
        assert len(air_passengers) == 1
        s = air_passengers["AirPassengers"]
        assert len(s) == 144
        assert air_passengers.freq.unit == "M"
        assert air_passengers.season_length == 12
        assert s.values[0] == 112.0 and s.values[-1] == 432.0

    def test_header_only(self):
        panel = parse_csv_text("unique_id,ds,y\n")
        assert len(panel) == 0

    def test_interleaved_ids_are_grouped_and_sorted(self, monthly_panel_csv):
        panel = parse_csv_text(monthly_panel_csv)
        assert panel.keys() == ["a", "b"]
        assert list(panel["a"].values) == [1.0, 2.0, 3.0, 4.0]
        assert list(panel["b"].values) == [10.0, 20.0, 30.0, 40.0]
        assert panel["a"].timestamps[0] == ts(2020, 1, 1)

    def test_unsorted_rows_get_time_sorted(self):
        text = (
            "unique_id,ds,y\n"
            "a,2020-03-01,3\n"
            "a,2020-01-01,1\n"
            "a,2020-02-01,2\n"
        )
        panel = parse_csv_text(text)
        assert list(panel["a"].values) == [1.0, 2.0, 3.0]

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="unique_id"):
            parse_csv_text("id,ds,y\na,2020-01-01,1\n")

    def test_bad_timestamp_reports_row(self):
        text = "unique_id,ds,y\na,2020-01-01,1\na,notadate,2\n"
        with pytest.raises(ParseError, match="row 3"):
            parse_csv_text(text)

    def test_repeated_bad_timestamp_reports_first_row(self):
        text = "unique_id,ds,y\na,2020-01-01,1\na,notadate,2\nb,notadate,3\n"
        with pytest.raises(ParseError, match=r"^row 3: unparseable timestamp 'notadate'$"):
            parse_csv_text(text)

    def test_whitespace_only_lines_are_skipped(self):
        text = "unique_id,ds,y\n\n  \na,2020-01-01,1\n\t\r\na,2020-02-01,2\n \na,2020-03-01,3\n"
        panel = parse_csv_text(text)
        assert list(panel["a"].values) == [1.0, 2.0, 3.0]

    def test_padded_cells_parse(self):
        text = "unique_id,ds,y\n a , 2020-01-01 ,1 \n\ta,\t2020-02-01\t,\t2\r\na,2020-03-01, 3\n"
        panel = parse_csv_text(text)
        assert panel.keys() == ["a"]
        assert panel["a"].timestamps == (ts(2020, 1, 1), ts(2020, 2, 1), ts(2020, 3, 1))
        assert list(panel["a"].values) == [1.0, 2.0, 3.0]

    def test_padded_bad_cells_are_reported_stripped(self):
        with pytest.raises(ParseError, match=r"^row 2: unparseable value 'oops'$"):
            parse_csv_text("unique_id,ds,y\na,2020-01-01, oops \n")
        with pytest.raises(ParseError, match=r"^row 2: unparseable timestamp 'x'$"):
            parse_csv_text("unique_id,ds,y\na, x ,1\n")
        with pytest.raises(ParseError, match=r"^row 2: empty series id$"):
            parse_csv_text("unique_id,ds,y\n  ,2020-01-01,1\n")

    @pytest.mark.parametrize(
        "stamps, row",
        [
            (("2020-01-01", "2020-02-01T00:00:00+00:00", "2020-03-01"), 3),
            (("2020-01-01T00:00+02:00", "2020-02-01T00:00+02:00", "2020-03-01T00:00+02:00"), 2),
            (("2020-01-01", "2020-02-01", "2020-03-01T00:00:00Z"), 4),
        ],
        ids=["mixed", "all-offset", "z-suffix"],
    )
    def test_utc_offset_is_a_parse_error(self, stamps, row):
        text = "unique_id,ds,y\n" + "".join(f"a,{t},{k}\n" for k, t in enumerate(stamps))
        with pytest.raises(ParseError, match=rf"^row {row}: timestamp .* carries a UTC offset$"):
            parse_csv_text(text)

    def test_more_cells_than_the_header_is_a_parse_error(self):
        text = "unique_id,ds,y\na,2020-01-01,1\na,2020-02-01,2,9\n"
        with pytest.raises(ParseError, match=r"^row 3: expected 3 columns, got 4$"):
            parse_csv_text(text)

    def test_bad_value_reports_row(self):
        text = "unique_id,ds,y\na,2020-01-01,oops\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_csv_text(text)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_names_row_and_series(self, cell):
        text = f"unique_id,ds,y\na,2020-01-01,1\nb,2020-01-01,2\nb,2020-02-01,{cell}\n"
        with pytest.raises(ParseError, match=r"row 4: non-finite value .* series 'b'"):
            parse_csv_text(text)

    def test_duplicate_timestamp(self):
        text = "unique_id,ds,y\na,2020-01-01,1\na,2020-01-01,2\n"
        with pytest.raises(DuplicateTimestampError):
            parse_csv_text(text)

    def test_duplicate_timestamp_names_row_and_series(self):
        # two interleaved series on the same stamps; b repeats one 3 rows on
        text = (
            "unique_id,ds,y\n"
            "a,2020-01-01,1\nb,2020-01-01,2\na,2020-02-01,3\nb,2020-02-01,4\n"
            "a,2020-03-01,5\nb,2020-03-01,6\nb,2020-02-01,7\na,2020-04-01,8\n"
        )
        message = r"^row 8: duplicate timestamp 2020-02-01 for series 'b'$"
        with pytest.raises(DuplicateTimestampError, match=message):
            parse_csv_text(text)

    def test_irregular_spacing_rejected(self):
        text = "unique_id,ds,y\na,2020-01-01,1\na,2020-01-05,2\na,2020-02-01,3\n"
        with pytest.raises(FrequencyError):
            parse_csv_text(text)

    def test_custom_column_names(self):
        text = "item,date,sales\nx,2020-01-01,5\nx,2020-01-02,6\nx,2020-01-03,7\n"
        panel = parse_csv_text(
            text, id_column="item", time_column="date", value_column="sales"
        )
        assert panel.freq.unit == "D"
        assert list(panel["x"].values) == [5.0, 6.0, 7.0]

    def test_explicit_freq_override_for_short_series(self):
        text = "unique_id,ds,y\na,2020-01-01,1\na,2020-02-01,2\n"
        panel = parse_csv_text(text, freq="M")
        assert panel.freq.unit == "M"
        with pytest.raises(InsufficientDataError):
            parse_csv_text(text)

    def test_round_trip_is_identical(self):
        rng = np.random.default_rng(11)
        panel = make_panel(
            {"s1": rng.standard_normal(30), "s2": rng.uniform(-5, 5, 17) * np.pi},
            unit="D",
        )
        text = panel.to_csv()
        again = parse_panel(io.StringIO(text))
        assert panel.equals(again)
        assert again.to_csv() == text


@st.composite
def csv_panels(draw):
    """Gap-free panels of 1-4 series on one random grid, any finite values."""
    freq = Frequency(draw(st.sampled_from(["Y", "Q", "M", "W", "D", "H"])))
    keys = draw(st.lists(st.text("abz09_-.", min_size=1, max_size=5), min_size=1,
                         max_size=4, unique=True))
    series = {}
    for key in keys:
        anchor = draw(st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1)))
        if freq.unit in "YQMWD" and draw(st.booleans()):
            anchor = anchor.replace(hour=0, minute=0, second=0, microsecond=0)
        n = draw(st.integers(3, 30))
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n, max_size=n))
        stamps = tuple(_grid_point(anchor, freq, i) for i in range(n))
        series[key] = Series(stamps, np.array(values))
    return SeriesPanel(series, freq)


class TestCsvRoundTrip:
    @settings(max_examples=200)
    @given(csv_panels())
    def test_to_csv_then_parse_is_equal(self, panel):
        assert panel.equals(parse_panel(io.StringIO(panel.to_csv())))


class TestFramesToCsv:
    def test_level_sets_must_agree_across_quantile_free_frames(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0, 4.0]})
        a = get_model("naive").forecast(panel, 2, (0.1, 0.9))
        b = get_model("ses").forecast(panel, 2, (0.2, 0.8))
        croston = get_model("croston").forecast(panel, 2, (0.1, 0.9))
        assert croston.levels is None
        assert frames_to_csv([croston, a]).splitlines()[0] == a.csv_header()
        with pytest.raises(ValueError, match="disagree on quantile levels"):
            frames_to_csv([a, croston, b])


class TestSeriesPanelValues:
    @pytest.mark.parametrize(
        "bad, first",
        [({143: np.nan}, 143), ({0: np.inf}, 0), ({70: -np.inf, 143: np.nan}, 70)],
    )
    def test_non_finite_value_names_series_and_position(self, air_passengers, bad, first):
        # Built in code, not parsed: a NaN let through reaches autoets and
        # comes back as an all-NaN forecast with no failed fold reported.
        s = air_passengers["AirPassengers"]
        values = s.values.copy()
        for position, value in bad.items():
            values[position] = value
        with pytest.raises(
            SchemaError, match=rf"series 'AirPassengers': non-finite value .* position {first}$"
        ):
            SeriesPanel({"AirPassengers": Series(s.timestamps, values)}, air_passengers.freq)


class TestTrainTestSplit:
    def test_basic_split(self, air_passengers):
        train, test = train_test_split(air_passengers, 12)
        assert len(train["AirPassengers"]) == 132
        assert len(test["AirPassengers"]) == 12
        joined = np.concatenate(
            [train["AirPassengers"].values, test["AirPassengers"].values]
        )
        assert np.array_equal(joined, air_passengers["AirPassengers"].values)

    def test_boundary_length(self):
        panel = make_panel({"a": np.arange(13.0)})
        train, test = train_test_split(panel, 12)
        assert len(train["a"]) == 1 and len(test["a"]) == 12

    def test_too_short(self):
        panel = make_panel({"short": np.arange(12.0)})
        with pytest.raises(SeriesTooShortError, match="short"):
            train_test_split(panel, 12)

    def test_partition_no_overlap(self):
        panel = make_panel({"a": np.arange(40.0), "b": np.arange(25.0) ** 2}, unit="W")
        train, test = train_test_split(panel, 7)
        for key in panel.keys():
            train_ts = set(train[key].timestamps)
            test_ts = set(test[key].timestamps)
            assert not train_ts & test_ts
            assert len(train_ts) + len(test_ts) == len(panel[key])
