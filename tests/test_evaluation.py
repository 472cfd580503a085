import calendar
import dataclasses
import hashlib
import io
import itertools
import math
import os
import re
import tempfile
import threading
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentcast.adapters import EnsembleForecaster, resolve_model, serve_stub
from agentcast.errors import ConfigError, SeriesTooShortError
from agentcast.evaluation import (
    CrossValReport,
    CrossValRow,
    _flat_folds,
    aggregate_leaderboard,
    coverage,
    crps_approx,
    cross_validate,
    mase,
    pinball,
    rolling_cutoffs,
)
from agentcast.models import Forecaster, get_model
from agentcast.panel import (
    DEFAULT_LEVELS,
    Frequency,
    Series,
    SeriesPanel,
    _matches_grid,
    format_timestamp,
)

from conftest import TypeErrorForecaster, make_panel, parse_monthly


class NetworkTypeErrorForecaster(TypeErrorForecaster):
    waits_on_network = True


class ThreadRecorder(Forecaster):
    """Test double that records the thread each fold runs on."""

    name = "recorder"

    def __init__(self):
        self.threads = []

    def _forecast_series(self, y, m, h, levels):
        self.threads.append(threading.get_ident())
        return get_model("naive")._forecast_series(y, m, h, levels)


class NetworkThreadRecorder(ThreadRecorder):
    waits_on_network = True


class LinearOracle(Forecaster):
    """Test double that extrapolates an OLS line, optionally offset.

    On noiseless linear series the un-offset oracle is exact, which pins
    the zero points of the aggregate metrics.
    """

    def __init__(self, name="oracle", offset=0.0):
        self.name = name
        self.offset = offset

    def _forecast_series(self, y, m, h, levels):
        t = np.arange(len(y), dtype=float)
        slope, intercept = np.polyfit(t, y, 1)
        mean = intercept + slope * (len(y) + np.arange(h)) + self.offset
        q = None if levels is None else np.repeat(mean[:, None], len(levels), axis=1)
        return mean, q


def pinball_oracle(y, yhat, tau):
    if y >= yhat:
        return tau * (y - yhat)
    return (1.0 - tau) * (yhat - y)


def mase_oracle(actuals, forecasts, train, m):
    diffs = [abs(train[t] - train[t - m]) for t in range(m, len(train))]
    scale = sum(diffs) / len(diffs)
    if scale == 0.0:
        return None
    errors = [abs(a - f) for a, f in zip(actuals, forecasts)]
    return (sum(errors) / len(errors)) / scale


def crps_oracle(actuals, quantiles, levels):
    total = 0.0
    for i, y in enumerate(actuals):
        inner = sum(pinball_oracle(y, quantiles[i][j], tau) for j, tau in enumerate(levels))
        total += 2.0 / len(levels) * inner
    return total / len(actuals)


class TestRollingCutoffs:
    def test_three_windows(self):
        plan = rolling_cutoffs(100, 12, 3, 12)
        assert plan.cutoffs == (64, 76, 88)

    def test_single_window_default(self):
        assert rolling_cutoffs(100, 12).cutoffs == (88,)
        assert rolling_cutoffs(100, 12).step == 12

    def test_too_short_reports_feasible_count(self):
        with pytest.raises(SeriesTooShortError) as err:
            rolling_cutoffs(24, 12, 2, 12)
        assert "at most 1" in str(err.value)

    def test_nothing_feasible(self):
        with pytest.raises(SeriesTooShortError) as err:
            rolling_cutoffs(10, 12, 1)
        assert "at most 0" in str(err.value)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            rolling_cutoffs(100, 0)
        with pytest.raises(ValueError):
            rolling_cutoffs(100, 12, 1, 0)

    def test_random_plans_satisfy_the_formula(self):
        rng = np.random.default_rng(404)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(5, 400))
            h = int(rng.integers(1, 30))
            w = int(rng.integers(1, 6))
            step = int(rng.integers(1, 25))
            feasible = n - h - (w - 1) * step >= 1
            if not feasible:
                with pytest.raises(SeriesTooShortError):
                    rolling_cutoffs(n, h, w, step)
                continue
            plan = rolling_cutoffs(n, h, w, step)
            assert len(plan.cutoffs) == w
            assert plan.cutoffs[-1] == n - h
            assert all(c >= 1 for c in plan.cutoffs)
            assert all(b - a == step for a, b in zip(plan.cutoffs, plan.cutoffs[1:]))
            for i, c in enumerate(plan.cutoffs):
                assert c == n - h - (w - 1 - i) * step
            checked += 1
        assert checked > 300


class TestCutoffProperty:
    @given(
        n=st.integers(1, 300),
        h=st.integers(1, 40),
        n_windows=st.integers(1, 8),
        step=st.none() | st.integers(1, 40),
    )
    def test_plan_or_exact_feasible_count(self, n, h, n_windows, step):
        stride = h if step is None else step
        if n - h - (n_windows - 1) * stride >= 1:
            cutoffs = rolling_cutoffs(n, h, n_windows, step).cutoffs
            assert len(cutoffs) == n_windows
            assert cutoffs[0] >= 1 and cutoffs[-1] == n - h
            # a positive stride between neighbours makes them ascending
            assert all(b - a == stride for a, b in zip(cutoffs, cutoffs[1:]))
            return
        with pytest.raises(SeriesTooShortError) as err:
            rolling_cutoffs(n, h, n_windows, step)
        k = int(re.search(r"at most (\d+) fold\(s\)", str(err.value)).group(1))
        assert k < n_windows
        if k >= 1:
            assert len(rolling_cutoffs(n, h, k, step).cutoffs) == k
        with pytest.raises(SeriesTooShortError):
            rolling_cutoffs(n, h, k + 1, step)


class TestCrossValidate:
    def test_seasonal_naive_single_fold_on_air_passengers(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive"], 12)
        y = air_passengers["AirPassengers"].values
        yhat = np.array([row.yhat for row in cv.rows])
        np.testing.assert_array_equal(yhat, y[120:132])
        np.testing.assert_array_equal(np.array([row.y for row in cv.rows]), y[132:144])

    def test_row_count_contract(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive", "naive"], 12, n_windows=2)
        assert len(cv.rows) == 48

    def test_row_ordering(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive", "naive"], 12, n_windows=2)
        observed = [(r.model, r.key, r.cutoff, r.step) for r in cv.rows]
        assert observed == sorted(
            observed, key=lambda t: (cv.model_names.index(t[0]), t[1], t[2], t[3])
        )

    def test_actuals_timestamps_come_from_the_panel(self, air_passengers):
        cv = cross_validate(air_passengers, ["naive"], 6)
        series = air_passengers["AirPassengers"]
        assert tuple(r.ds for r in cv.rows) == series.timestamps[138:144]
        assert all(r.cutoff_ts == series.timestamps[137] for r in cv.rows)

    def test_failed_fold_is_isolated(self):
        panel = make_panel({"s": [float(v % 12 + 1) for v in range(32)]})
        cv = cross_validate(panel, ["seasonalnaive"], 12, n_windows=2, step=12)
        first = [r for r in cv.rows if r.cutoff == 8]
        second = [r for r in cv.rows if r.cutoff == 20]
        assert len(first) == len(second) == 12
        assert all(r.failed and np.isnan(r.yhat) for r in first)
        assert all(not r.failed and np.isfinite(r.yhat) for r in second)

    def test_model_failing_every_fold_has_no_quantile_array(self):
        # seasonalnaive fails the only fold, which trains on less than a season
        panel = make_panel({"s": [float(v % 12 + 1) for v in range(20)]})
        cv = cross_validate(panel, ["seasonalnaive", "naive"], 12)
        assert cv.failed[0].all() and not cv.failed[1].any()
        assert cv.quantiles[0] is None and cv.quantiles[1] is not None
        rows = [line.split(",") for line in cv.to_csv().splitlines()[1:]]
        failed = [row for row in rows if row[2] == "seasonalnaive"]
        assert len(failed) == 12
        assert all(row[7:] == ["nan"] * len(DEFAULT_LEVELS) + ["true"] for row in failed)
        board = aggregate_leaderboard(cv, panel)
        assert board["seasonalnaive"].crps is None and board["naive"].crps is not None

    def test_non_finite_forecast_fails_the_fold(self):
        # naive's quantiles overflow to -inf on this finite series; croston
        # emits no quantiles and stays finite
        panel = parse_monthly(np.random.default_rng(0).normal(0.0, 1e200, 48))
        cv = cross_validate(panel, ["naive", "croston"], 12, n_windows=2)
        assert cv.failed[0].all() and not cv.failed[1].any()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_programming_error_propagates(self, n_jobs):
        panel = make_panel({"s": [float(v % 12 + 1) for v in range(40)]})
        for forecaster in (TypeErrorForecaster(), NetworkTypeErrorForecaster()):
            with pytest.raises(TypeError):
                cross_validate(panel, [forecaster], 6, n_windows=2, n_jobs=n_jobs)

    def test_builtin_folds_run_on_the_calling_thread(self):
        recorder = ThreadRecorder()
        cross_validate(make_panel({"a": [1.0] * 30, "b": [2.0] * 30}), [recorder], 4,
                       n_windows=3, n_jobs=4)
        assert recorder.threads == [threading.get_ident()] * 6

    def test_network_folds_run_on_pool_threads(self):
        recorder = NetworkThreadRecorder()
        cross_validate(make_panel({"a": [1.0] * 30, "b": [2.0] * 30}), [recorder], 4,
                       n_windows=3, n_jobs=2)
        assert len(recorder.threads) == 6
        assert 1 <= len(set(recorder.threads)) <= 2
        assert threading.get_ident() not in recorder.threads

    def test_forecasts_ignore_post_cutoff_data(self):
        rng = np.random.default_rng(77)
        base = list(np.round(rng.normal(100.0, 10.0, 40), 3))
        corrupted = base[:34] + [1e6, -1e6, 1e6, -1e6, 1e6, -1e6]
        models = ["naive", "ses", "theta"]
        cv_a = cross_validate(make_panel({"s": base}), models, 6)
        cv_b = cross_validate(make_panel({"s": corrupted}), models, 6)
        yhat_a = [r.yhat for r in cv_a.rows]
        yhat_b = [r.yhat for r in cv_b.rows]
        assert yhat_a == yhat_b

    def test_empty_model_list_rejected(self, air_passengers):
        with pytest.raises(ConfigError):
            cross_validate(air_passengers, [], 12)

    def test_empty_panel_rejected(self):
        with pytest.raises(ConfigError):
            cross_validate(SeriesPanel({}, None), ["naive"], 2)

    def test_duplicate_models_rejected(self, air_passengers):
        with pytest.raises(ConfigError) as err:
            cross_validate(air_passengers, ["naive", "naive"], 12)
        assert "naive" in str(err.value)

    @pytest.mark.parametrize("model", [None, 3, get_model("naive").forecast])
    def test_non_forecaster_model_rejected(self, air_passengers, model):
        with pytest.raises(ConfigError, match=type(model).__name__):
            cross_validate(air_passengers, ["naive", model], 12)

    def test_too_short_series_names_the_series(self):
        panel = make_panel({"long": [1.0] * 40, "tiny": [1.0, 2.0, 3.0]})
        with pytest.raises(SeriesTooShortError) as err:
            cross_validate(panel, ["naive"], 12)
        assert "tiny" in str(err.value)

    def test_forecaster_objects_and_aliases_mix(self, air_passengers):
        cv = cross_validate(air_passengers, [get_model("naive"), "theta"], 6)
        assert cv.model_names == ("naive", "theta")

    def test_parallel_run_matches_sequential(self):
        rng = np.random.default_rng(5)
        panel = make_panel(
            {f"s{i}": list(np.round(rng.normal(50, 5, 30), 3)) for i in range(3)}
        )
        server = serve_stub(alias="ses")
        try:
            remote = f"adapter:{server.url}"
            models = ["naive", "ses", remote, f"median_ensemble:naive+{remote}"]
            seq = cross_validate(panel, models, 4, n_windows=2, step=4, n_jobs=1)
            par = cross_validate(panel, models, 4, n_windows=2, step=4, n_jobs=4)
        finally:
            server.close()
        assert not seq.failed.any()
        assert seq.to_csv() == par.to_csv()

    def test_quantile_free_model_rows(self, air_passengers):
        cv = cross_validate(air_passengers, ["croston"], 6)
        assert cv.levels == DEFAULT_LEVELS
        assert all(r.quantiles is None for r in cv.rows)

    def test_csv_shape(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive", "naive"], 12, n_windows=2)
        lines = cv.to_csv().splitlines()
        assert lines[0].startswith("unique_id,cutoff,model,step,ds,y,yhat,q10")
        assert lines[0].endswith(",failed")
        assert len(lines) == 49
        assert all(line.endswith(",false") for line in lines[1:])


def mixed_length_panel():
    """Series of 23 to 40 points.  At h=12, two folds and step 3,
    seasonalnaive fails both folds of ``a`` and the first of ``c``, and
    ``zero`` has no MASE or CRPS scale."""
    t = np.arange(40, dtype=float)
    return make_panel({
        "a": list(10.0 + np.sin(t[:23])),
        "b": list(50.0 + 2.0 * t + 5.0 * np.cos(t / 2.0)),
        "c": list(np.where(t[:26].astype(int) % 3 == 0, 4.0, 0.0) + 0.1 * t[:26]),
        "zero": [0.0] * 36,
    })


# SHA-256 of cv.to_csv() and of the leaderboard's to_csv(), frozen from the
# row-per-step report that preceded the array one.
CSV_DIGESTS = {
    "air_passengers": (
        ["naive", "seasonalnaive", "ses", "theta", "croston", "adida",
         "median_ensemble:seasonalnaive+theta+croston"],
        dict(h=12, n_windows=3),
        "b58856ed4be527d5436cd248a11756a606ebfedd70df96804361cd66f17d540b",
        "289e1a40b64452a38d49a560aa905c7fe3e0ff1d6d9c230397e814586977e676",
    ),
    "mixed_length": (
        ["naive", "seasonalnaive", "croston", "theta"],
        dict(h=12, n_windows=2, step=3),
        "277b10fdf4b81c5249976798286cc1047beee6ac7162d395bedd87ab0327965e",
        "e5dcf0c4a7c6824d6064e73139f60addc6e822f950b531f0a902f1bae66b4040",
    ),
    "no_levels": (
        ["naive", "theta", "croston", "median_ensemble:naive+theta+croston"],
        dict(h=12, n_windows=2, levels=None),
        "6a91980c0426cca460f212d04d1e1b3036d7b2b7cd77bbfda24ccdaf27f158d9",
        "6a698c32c569472fd7d60ac301a602539bdc062049b0c998d51bd4e6a0ec3ea5",
    ),
}


class TestCrossValReportArrays:
    @pytest.mark.parametrize("case", sorted(CSV_DIGESTS))
    def test_csv_bytes_unchanged(self, case, air_passengers):
        models, kwargs, cv_digest, board_digest = CSV_DIGESTS[case]
        panel = mixed_length_panel() if case == "mixed_length" else air_passengers
        cv = cross_validate(panel, models, **kwargs)
        board = aggregate_leaderboard(cv, panel)
        assert hashlib.sha256(cv.to_csv().encode()).hexdigest() == cv_digest
        assert hashlib.sha256(board.to_csv().encode()).hexdigest() == board_digest

    def test_rows_are_a_view_of_the_arrays(self):
        panel = mixed_length_panel()
        cv = cross_validate(panel, ["seasonalnaive", "croston"], 12, n_windows=2, step=3)
        rows = cv.rows
        assert len(cv) == len(rows) == cv.yhat.size
        assert cv.quantiles[1] is None  # croston forecasts no quantiles
        assert cv.failed[0].sum() == 3 and not cv.failed[1].any()
        i = 0
        for mi, model in enumerate(cv.model_names):
            for si, key in enumerate(cv.series):
                stamps = panel[key].timestamps
                for fi, cutoff in enumerate(cv.cutoffs[si]):
                    failed = bool(cv.failed[mi, si, fi])
                    for k in range(cv.h):
                        row = rows[i]
                        i += 1
                        assert (row.model, row.key, row.cutoff, row.step) == (
                            model, key, cutoff, k + 1
                        )
                        assert row.cutoff_ts == stamps[cutoff - 1]
                        assert row.ds == stamps[cutoff + k]
                        assert row.y == cv.y[si, fi, k]
                        assert row.failed is failed
                        if failed:
                            assert np.isnan(row.yhat)
                            assert len(row.quantiles) == len(cv.levels)
                            assert all(np.isnan(v) for v in row.quantiles)
                        else:
                            assert row.yhat == cv.yhat[mi, si, fi, k]
                            if cv.quantiles[mi] is None:
                                assert row.quantiles is None
                            else:
                                assert row.quantiles == tuple(cv.quantiles[mi][si, fi, k])
        assert i == len(rows)

    def test_row_is_slotted_and_keeps_its_dataclass_behaviour(self):
        # the same fields in a frozen dataclass without slots
        plain = dataclasses.make_dataclass(
            "CrossValRow",
            [(f.name, f.type) if f.default is dataclasses.MISSING
             else (f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(CrossValRow)],
            frozen=True,
        )
        cells = ("k", 7, datetime(2020, 7, 1), "naive", 1, datetime(2020, 8, 1), 3.5, 4.0,
                 (3.0, 5.0))
        row, twin, ref = CrossValRow(*cells), CrossValRow(*cells), plain(*cells)
        assert not hasattr(row, "__dict__")
        assert CrossValRow.__slots__ == tuple(f.name for f in dataclasses.fields(plain))
        assert [(f.name, f.type, f.default) for f in dataclasses.fields(row)] == [
            (f.name, f.type, f.default) for f in dataclasses.fields(ref)
        ]
        assert row == twin and row is not twin
        assert repr(row) == repr(ref)
        assert hash(row) == hash(twin) == hash(ref)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.yhat = 0.0
        failed = dataclasses.replace(row, yhat=float("nan"), quantiles=None, failed=True)
        assert type(failed) is CrossValRow and row.failed is False
        assert repr(failed) == repr(dataclasses.replace(ref, yhat=float("nan"),
                                                        quantiles=None, failed=True))
        assert failed != row
        assert dataclasses.replace(failed, yhat=4.0, quantiles=(3.0, 5.0), failed=False) == row


def reference_rows(cv):
    """The rows tuple as the report built it before ``rows`` became a view."""
    nan_q = None if cv.levels is None else (float("nan"),) * len(cv.levels)
    rows = []
    for mi, model in enumerate(cv.model_names):
        qs = cv.quantiles[mi]
        for si, key in enumerate(cv.series):
            stamps = cv.timestamps[si]
            for fi, cutoff in enumerate(cv.cutoffs[si].tolist()):
                y, yhat = cv.y[si, fi].tolist(), cv.yhat[mi, si, fi].tolist()
                q = None if qs is None else qs[si, fi].tolist()
                failed = bool(cv.failed[mi, si, fi])
                if failed or q is None:
                    q = [nan_q if failed else None] * cv.h
                else:
                    q = list(map(tuple, q))
                rows.extend(
                    CrossValRow(
                        key, cutoff, stamps[cutoff - 1], model, k + 1, stamps[cutoff + k],
                        y[k], yhat[k], q[k], failed,
                    )
                    for k in range(cv.h)
                )
    return tuple(rows)


def same_rows(got, want):
    # repr tells NaN cells apart from nothing else, and Python ints and
    # floats from numpy scalars.
    return len(got) == len(want) and all(
        type(a) is CrossValRow and repr(a) == repr(b) for a, b in zip(got, want)
    )


class TestRowsView:
    @pytest.fixture(params=[DEFAULT_LEVELS, None], ids=["levels", "no_levels"])
    def cv(self, request):
        # seasonalnaive fails three folds; croston forecasts no quantiles
        return cross_validate(
            mixed_length_panel(), ["seasonalnaive", "croston"], 12, n_windows=2, step=3,
            levels=request.param,
        )

    def test_view_equals_the_reference_rows(self, cv):
        want = reference_rows(cv)
        assert cv.failed.sum() == 3 and cv.quantiles[1] is None
        assert same_rows(list(cv.rows), want)
        assert same_rows(tuple(cv.rows), want)
        assert same_rows(cv.rows[5:40:3], want[5:40:3]) and type(cv.rows[:2]) is tuple
        assert same_rows(cv.rows[::-7], want[::-7])
        assert same_rows(list(reversed(cv.rows)), want[::-1])

    def test_len_builds_no_row_and_iteration_builds_one_fold(self, cv, monkeypatch):
        built = []

        def counting(*fields):
            built.append(fields)
            return CrossValRow(*fields)

        monkeypatch.setattr("agentcast.evaluation.CrossValRow", counting)
        rows = cv.rows
        assert len(rows) == cv.yhat.size == len(reference_rows(cv)) and built == []
        next(iter(rows))
        assert len(built) == cv.h

    def test_indexing_works_as_on_a_tuple(self, cv):
        rows, want = cv.rows, reference_rows(cv)
        assert same_rows([rows[-1], rows[0], rows[-len(want)]], [want[-1], want[0], want[0]])
        assert same_rows([rows[i] for i in range(len(want))], want)
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                rows[i]
        with pytest.raises(TypeError):
            rows[1.0]

    def test_streaming_peak_is_a_tenth_of_the_tuple(self):
        rng = np.random.default_rng(3)
        panel = make_panel({f"s{i}": list(rng.uniform(1.0, 9.0, 60)) for i in range(100)})
        cv = cross_validate(panel, ["naive", "seasonalnaive"], 6, n_windows=3)

        def peak(read):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = read()
            return tracemalloc.get_traced_memory()[1] - base, out

        tracemalloc.start()
        try:
            streamed, failed = peak(lambda: sum(r.failed for r in cv.rows))
            built, rows = peak(lambda: tuple(cv.rows))
        finally:
            tracemalloc.stop()
        assert failed == 0 and len(rows) == 3600
        assert streamed < built / 10


def seeded_month_end_panel(seed=2024, n_series=40):
    """Seeded monthly panel anchored on the 31st of several months, so most
    days are clamped to the month's end: seasonal, trended, intermittent,
    constant and short series (38 to 47 points, whose first 3-window fold
    at h=12 trains on 2 to 11 points, below one season)."""
    rng = np.random.default_rng(seed)
    series = {}
    for i in range(n_series):
        kind = ("seasonal", "trended", "intermittent", "constant", "short")[i % 5]
        n = int(rng.integers(38, 48)) if kind == "short" else int(rng.integers(60, 97))
        start_month = (1, 3, 5, 7, 8, 10, 12)[i % 7]
        stamps = []
        for k in range(n):
            year, month = 2010 + (start_month - 1 + k) // 12, (start_month - 1 + k) % 12 + 1
            stamps.append(datetime(year, month, min(31, calendar.monthrange(year, month)[1])))
        t = np.arange(n, dtype=float)
        if kind == "seasonal":
            y = 100.0 + 15.0 * np.sin(2 * np.pi * t / 12) + rng.normal(0.0, 3.0, n)
        elif kind == "trended":
            y = 20.0 + 1.7 * t + rng.normal(0.0, 4.0, n)
        elif kind == "intermittent":
            y = np.where(rng.random(n) < 0.3, rng.poisson(4.0, n) + 1.0, 0.0)
        elif kind == "constant":
            y = np.full(n, 7.25)
        else:
            y = rng.gamma(2.0, 10.0, n)
        series[f"{kind}_{i:02d}"] = Series(tuple(stamps), y)
    return SeriesPanel(series, Frequency("M"))


# The panel_cv models, with one more ensemble listed before its members.
# SHA-256 of cv.to_csv() and of the leaderboard's to_csv(), frozen before the
# ensemble reused its members' fold results and before the shared MASE scales.
PANEL_CV_BYTES = (
    ["median_ensemble:seasonalnaive+croston", "naive", "seasonalnaive",
     "historicaverage", "croston", "median_ensemble:naive+seasonalnaive+historicaverage"],
    "9eca0c78c7393fc9665fb3e21a02b2bc256247ea130329f7e3aa368aece9cb49",
    "43e371c4e97857bd330fcd34cfcef09f7050c36ebbeca03e7e01d931f8b85a81",
)


class TestPanelCvBytes:
    def test_csv_bytes_unchanged(self):
        models, cv_digest, board_digest = PANEL_CV_BYTES
        panel = seeded_month_end_panel()
        cv = cross_validate(panel, models, 12, n_windows=3)
        board = aggregate_leaderboard(cv, panel)
        assert hashlib.sha256(cv.to_csv().encode()).hexdigest() == cv_digest
        assert hashlib.sha256(board.to_csv().encode()).hexdigest() == board_digest


ENSEMBLE = "median_ensemble:naive+seasonalnaive+historicaverage"
MEMBERS = ["naive", "seasonalnaive", "historicaverage"]


class TestEnsembleReuse:
    """Every ensemble combines its members' fold results, each member
    fitted once per fold whether listed or not, with the same bytes."""

    @pytest.mark.parametrize("models", [
        MEMBERS + [ENSEMBLE], [ENSEMBLE] + MEMBERS, ["naive", ENSEMBLE, "croston"],
    ])
    def test_ensemble_slice_is_independent_of_the_list(self, models):
        panel = seeded_month_end_panel()
        alone = cross_validate(panel, [ENSEMBLE], 12, n_windows=3)
        cv = cross_validate(panel, models, 12, n_windows=3)
        mi = models.index(ENSEMBLE)
        assert cv.yhat[mi].tobytes() == alone.yhat[0].tobytes()
        assert cv.quantiles[mi].tobytes() == alone.quantiles[0].tobytes()
        assert np.array_equal(cv.failed[mi], alone.failed[0])

    def test_a_failed_member_fold_fails_the_ensemble_fold(self):
        # seasonalnaive fails the folds of the short series that train on
        # less than one season; its siblings fail none
        panel = seeded_month_end_panel()
        cv = cross_validate(panel, [ENSEMBLE] + MEMBERS, 12, n_windows=3)
        assert cv.failed[2].any() and not cv.failed[[1, 3]].any()
        assert np.array_equal(cv.failed[0], cv.failed[2])

    def test_listed_members_are_not_refit(self):
        panel = make_panel({"a": [float(v % 5) for v in range(30)], "b": [2.0] * 30})
        inner, listed = ThreadRecorder(), ThreadRecorder()
        ensemble = EnsembleForecaster([inner, get_model("naive")])
        cross_validate(panel, [ensemble, listed, "naive"], 4, n_windows=3)
        assert inner.threads == [] and len(listed.threads) == 6
        cross_validate(panel, [ensemble, "naive"], 4, n_windows=3)
        assert len(inner.threads) == 6  # not listed: fitted once per fold all the same

    def test_remote_member_sends_one_request_per_fold(self):
        # listed next to its ensemble, or only inside it
        panel = make_panel({"a": [float(v % 5) for v in range(30)], "b": [2.0] * 30})
        for listed in (True, False):
            server = serve_stub(alias="seasonalnaive")
            try:
                remote = f"adapter:{server.url}"
                ensemble = f"median_ensemble:naive+{remote}"
                models = ["naive", remote, ensemble] if listed else [ensemble]
                cv = cross_validate(panel, models, 4, n_windows=3, n_jobs=2)
                assert server.request_count == 6
            finally:
                server.close()
            assert not cv.failed.any()

    def test_only_remote_member_folds_use_the_pool(self):
        panel = make_panel({"a": [float(v % 5) for v in range(30)], "b": [2.0] * 30})
        local, remote = ThreadRecorder(), NetworkThreadRecorder()
        cv = cross_validate(panel, [EnsembleForecaster([local, remote])], 4, n_windows=3,
                            n_jobs=2)
        assert local.threads == [threading.get_ident()] * 6
        assert len(remote.threads) == 6 and threading.get_ident() not in remote.threads
        assert cv.model_names == ("median_ensemble[recorder+recorder]",)
        assert not cv.failed.any()


def reference_score(cv, panel, mi):
    """The per-fold scoring loop that the shared MASE scales replaced: the
    public ``mase`` and ``crps_approx`` per (series, fold), ``pinball`` and
    ``coverage`` over the pooled folds; a 1-point window has no MASE."""
    m = panel.season_length
    ok = ~cv.failed[mi]
    yhat, q, levels = cv.yhat[mi], cv.quantiles[mi], cv.levels
    has_q = levels is not None and q is not None and bool(ok.any())
    series_mase, normalized, mase_excluded, crps_excluded = [], [], 0, 0
    for si in np.flatnonzero(ok.any(axis=1)):
        full = panel[cv.series[si]].values
        values = []
        for fi in np.flatnonzero(ok[si]):
            train = full[: cv.cutoffs[si, fi]]
            lag = m if train.size > m else 1
            if train.size > lag:
                value = mase(cv.y[si, fi], yhat[si, fi], train, lag)
                if value is not None:
                    values.append(value)
        if values:
            series_mase.append(float(np.mean(values)))
        else:
            mase_excluded += 1
        if has_q:
            y = cv.y[si, ok[si]].reshape(-1)
            normalizer = float(np.mean(np.abs(y)))
            if normalizer == 0.0:
                crps_excluded += 1
            else:
                series_q = q[si, ok[si]].reshape(-1, len(levels))
                normalized.append(crps_approx(y, series_q, levels) / normalizer)
    pinballs, cover = {}, None
    if has_q:
        all_y, all_q = cv.y[ok].reshape(-1), q[ok].reshape(-1, len(levels))
        for j, level in enumerate(levels):
            pinballs[level] = float(np.mean(pinball(all_y, all_q[:, j], level)))
        if len(levels) >= 2:
            cover = coverage(all_y, all_q, levels, levels[0], levels[-1])
    return (
        float(np.mean(series_mase)) if series_mase else None,
        float(np.mean(normalized)) if normalized else None,
        pinballs, cover, int(cv.failed[mi].sum()), mase_excluded, crps_excluded,
    )


@st.composite
def scoring_cases(draw):
    """A CV report on short quarterly or monthly series, so that cutoffs at
    or below a season (the lag-1 scale) and 1-point windows occur; constant
    prefixes give zero scales; more folds are failed at random."""
    unit = draw(st.sampled_from(["Q", "M"]))
    h, n_windows, step = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    levels = draw(st.sampled_from([DEFAULT_LEVELS, (0.25, 0.5, 0.75), (0.5,), None]))
    cells = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3, allow_nan=False)
    values = {}
    for i in range(draw(st.integers(1, 4))):
        n = h + (n_windows - 1) * step + draw(st.integers(1, 20))
        flat = draw(st.integers(0, n))
        values[f"s{i}"] = [0.5] * flat + draw(st.lists(cells, min_size=n - flat, max_size=n - flat))
    panel = make_panel(values, unit)
    models = ["naive", "seasonalnaive", "historicaverage", "croston"]
    cv = cross_validate(panel, models, h, n_windows=n_windows, step=step, levels=levels)
    extra = draw(st.lists(st.booleans(), min_size=cv.failed.size, max_size=cv.failed.size))
    failed = cv.failed | np.array(extra).reshape(cv.failed.shape)
    quantiles = tuple(
        None if q is None else np.where(failed[mi, ..., None, None], np.nan, q)
        for mi, q in enumerate(cv.quantiles)
    )
    yhat = np.where(failed[..., None], np.nan, cv.yhat)
    return panel, dataclasses.replace(cv, failed=failed, yhat=yhat, quantiles=quantiles)


class TestSharedScaleScoring:
    @settings(max_examples=150)
    @given(scoring_cases())
    def test_scores_equal_the_per_fold_loop_bit_for_bit(self, case):
        panel, cv = case
        board = aggregate_leaderboard(cv, panel)
        for mi, model in enumerate(cv.model_names):
            s = board[model]
            got = (s.mase, s.crps, s.pinball_by_level, s.coverage,
                   s.failures, s.mase_excluded, s.crps_excluded)
            assert repr(got) == repr(reference_score(cv, panel, mi))


SPECIAL_CELLS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e-310,
    2.2250738585072014e-308, 1e-300, 1e308, -1e308, 1.7976931348623157e308,
    0.1, -2.5, 1.0 / 3.0, 123456789012.5, 1e16,
]


def reference_cv_lines(cv):
    """The CV CSV written one "{:.12g}".format per cell plus a join."""
    fmt = "{:.12g}".format
    n_levels = 0 if cv.levels is None else len(cv.levels)
    lines = [cv.csv_header()]
    for mi, model in enumerate(cv.model_names):
        for si, key in enumerate(cv.series):
            stamps = cv.timestamps[si]
            for fi, cutoff in enumerate(cv.cutoffs[si].tolist()):
                for k in range(cv.h):
                    q = cv.quantiles[mi]
                    cells = [
                        key, format_timestamp(stamps[cutoff - 1]), model, str(k + 1),
                        format_timestamp(stamps[cutoff + k]),
                        fmt(float(cv.y[si, fi, k])), fmt(float(cv.yhat[mi, si, fi, k])),
                    ]
                    cells += ["nan"] * n_levels if q is None else map(fmt, q[si, fi, k].tolist())
                    cells.append("true" if cv.failed[mi, si, fi] else "false")
                    lines.append(",".join(cells))
    return lines


def report_of_cells(cells, levels):
    """Two models (with and without quantiles), two series (one key holds
    "%" signs), two folds of three steps; one fold of each model failed."""
    h, n = 3, 10
    stamps = tuple(datetime(2020 + i // 12, i % 12 + 1, 1) for i in range(n))
    pool = np.array(cells, dtype=float)

    def take(offset, *shape):
        return np.resize(np.roll(pool, offset), shape)

    failed = np.zeros((2, 2, 2), dtype=bool)
    failed[0, 1, 0] = failed[1, 0, 1] = True
    yhat = np.where(failed[..., None], np.nan, take(1, 2, 2, 2, h))
    q = None
    if levels is not None:
        q = np.where(failed[0, ..., None, None], np.nan, take(2, 2, 2, h, len(levels)))
    return CrossValReport(
        ("with%dq", "no_q"), ("k%s%%1", "plain"), (stamps, stamps),
        np.array([[4, 7], [4, 7]]), take(0, 2, 2, h), yhat, (q, None), failed,
        levels, h, 2, 3,
    )


CSV_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
CSV_NAMES = st.text("ab%sd1_-", min_size=1, max_size=6)
# Bit patterns that print alike, or differ only in a zero's sign: 0.0 and
# -0.0, then NaNs of either sign, with a payload, and a signaling one.
ZERO_BITS = (0x0000000000000000, 0x8000000000000000)
NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF4000000000000)
TWIN_BITS = list(itertools.permutations(ZERO_BITS, 2)) + list(itertools.permutations(NAN_BITS, 2))


def float_array(draw, *shape):
    return np.array(draw(st.lists(
        CSV_FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)
    )), dtype=float).reshape(shape)


@st.composite
def fold_cells(draw, h, width):
    """One fold's [step, cell] values: drawn cell by cell, flat (one row
    repeated bit for bit) or near flat (flat but for one later cell whose
    bits differ from the first row's only in a zero's sign or a NaN's sign
    or payload, so that the two print alike or as 0 and -0)."""
    kind = draw(st.sampled_from(["cells", "flat", "near"]))
    if kind == "cells":
        return float_array(draw, h, width)
    cells = np.tile(float_array(draw, 1, width), (h, 1))
    if kind == "near" and h > 1:
        first, other = draw(st.sampled_from(TWIN_BITS))
        k, c = draw(st.integers(1, h - 1)), draw(st.integers(0, width - 1))
        bits = cells.view(np.uint64)
        bits[:, c] = first
        bits[k, c] = other
    return cells


@st.composite
def cv_reports(draw):
    """A CrossValReport drawn fold by fold (see ``fold_cells``): keys and
    model names that hold "%", any float (NaN, ±inf and -0.0 too), failed
    folds, quantile-free models next to models with quantiles, all or some
    levels or none, h from 1 (every fold flat) and 1 to 3 windows."""
    h = draw(st.integers(1, 4))
    n_windows = draw(st.integers(1, 3))
    step = draw(st.integers(1, h))
    levels = draw(st.none() | st.just(DEFAULT_LEVELS) | st.lists(
        st.sampled_from(DEFAULT_LEVELS), min_size=1, max_size=3, unique=True
    ).map(lambda ls: tuple(sorted(ls))))
    keys = draw(st.lists(CSV_NAMES, min_size=1, max_size=3, unique=True))
    models = draw(st.lists(CSV_NAMES, min_size=1, max_size=3, unique=True))
    S, M, L = len(keys), len(models), len(levels or ())

    timestamps, cutoffs = [], []
    for si in range(S):
        first = draw(st.integers(1, 4))
        n = first + (n_windows - 1) * step + h + draw(st.integers(0, 2))
        start = draw(st.integers(0, 11))
        timestamps.append(tuple(
            datetime(2000 + (start + i) // 12, (start + i) % 12 + 1, 1) for i in range(n)
        ))
        cutoffs.append([first + fi * step for fi in range(n_windows)])
    failed = np.array(draw(st.lists(
        st.booleans(), min_size=M * S * n_windows, max_size=M * S * n_windows
    ))).reshape(M, S, n_windows)
    with_q = [levels is not None and draw(st.booleans()) for _ in range(M)]
    cells = np.full((M, S, n_windows, h, 1 + L), np.nan)  # [..., yhat and quantiles]
    for mi, si, fi in np.ndindex(M, S, n_windows):
        width = 1 + L if with_q[mi] else 1
        cells[mi, si, fi, :, :width] = draw(fold_cells(h, width))
    cells[failed] = np.nan
    quantiles = tuple(cells[mi, ..., 1:].copy() if with_q[mi] else None for mi in range(M))
    return CrossValReport(
        tuple(models), tuple(keys), tuple(timestamps), np.array(cutoffs),
        float_array(draw, S, n_windows, h), cells[..., 0].copy(), quantiles, failed,
        levels, h, n_windows, step,
    )


def with_bits(values, k, c, bits):
    """A copy of ``values`` ([..., step, cell]) whose cell c of step k
    holds the given bit pattern."""
    out = values.copy()
    out.view(np.uint64)[..., k, c] = bits
    return out


class TestFlatFolds:
    def test_repeated_rows_are_flat(self):
        values = np.tile([[1.5, -0.0, float("inf")]], (2, 1, 4, 1))  # [series, fold, step, cell]
        assert _flat_folds(values).tolist() == [[True], [True]]
        assert _flat_folds(values[:, :, :1]).tolist() == [[True], [True]]  # h = 1

    def test_a_zero_of_the_other_sign_is_not_flat(self):
        values = np.zeros((1, 2, 3, 2))
        values[0, 1] = with_bits(values[0, 1], 2, 1, ZERO_BITS[1])
        assert values[0, 1, 2, 1] == values[0, 1, 0, 1]  # equal as values
        assert _flat_folds(values).tolist() == [[True, False]]

    @pytest.mark.parametrize("first, other", list(itertools.permutations(NAN_BITS, 2)))
    def test_nan_matches_only_its_own_bits(self, first, other):
        values = np.ones((1, 1, 3, 2))
        values.view(np.uint64)[..., 0] = first
        assert _flat_folds(values).tolist() == [[True]]
        assert _flat_folds(with_bits(values, 1, 0, other)).tolist() == [[False]]


def flat_report(levels, h=3):
    """Two models (with and without quantiles), two series (one key and a
    model name hold "%"), two folds: flat folds, a near-flat fold whose last
    step holds -0.0 where the first holds 0.0, one whose NaN differs in
    payload (with two levels or more), a fold whose rows all differ and a
    failed fold."""
    L = 0 if levels is None else len(levels)
    stamps = tuple(datetime(2020 + i // 12, i % 12 + 1, 1) for i in range(10))
    row = np.array([0.0, 2.5, float("nan"), 1e-310, -7.0, 1e16, 0.1, -0.0, 3.0, 4.0])[: 1 + L]
    cells = np.tile(row, (2, 2, 2, h, 1))  # [model, series, fold, step, cell]
    cells[0, 0, 1] = with_bits(cells[0, 0, 1], h - 1, 0, ZERO_BITS[1])
    if L > 1:
        cells[0, 1, 1] = with_bits(cells[0, 1, 1], h - 1, 2, NAN_BITS[2])
    cells[1, 1, 0] = np.arange(h * (1 + L)).reshape(h, 1 + L) / 3.0
    failed = np.zeros((2, 2, 2), dtype=bool)
    failed[1, 0, 1] = True
    cells[failed] = np.nan
    q = None if levels is None else cells[0, ..., 1:].copy()
    return CrossValReport(
        ("with%dq", "no_q%"), ("k%s%%1", "plain"), (stamps, stamps),
        np.array([[4, 7], [4, 7]]), np.tile([1.0, -0.0, 2.5], (2, 2, 1))[..., :h],
        cells[..., 0].copy(), (q, None), failed, levels, h, 2, 3,
    )


class TestCrossValCsvWriter:
    @pytest.mark.parametrize("levels", [(0.1, 0.5, 0.9), None])
    def test_special_cells_match_per_cell_format(self, levels):
        cv = report_of_cells(SPECIAL_CELLS, levels)
        assert cv.to_csv().splitlines() == reference_cv_lines(cv)
        assert cv.to_csv().count("\nk%s%%1,") == 12  # 2 models x 2 folds x 3 steps

    @pytest.mark.parametrize("levels", [DEFAULT_LEVELS, (0.1, 0.5, 0.9), None])
    @pytest.mark.parametrize("h", [3, 1])
    def test_flat_and_near_flat_folds_match_per_cell_format(self, levels, h):
        cv = flat_report(levels, h)
        text = cv.to_csv()
        assert text.splitlines() == reference_cv_lines(cv)
        assert text.count("\nk%s%%1,") == 4 * h and text.count(",no_q%,") == 4 * h
        if h == 3:  # the zero's sign shows in the last step's forecast
            assert ",with%dq,3,2020-10-01,2.5,-0," in text

    def test_float32_forecasts_match_per_cell_format(self):
        cv = flat_report(None)
        cv = dataclasses.replace(cv, yhat=cv.yhat.astype(np.float32))
        assert cv.to_csv().splitlines() == reference_cv_lines(cv)

    @given(st.lists(st.floats(), min_size=1, max_size=60))
    @example(SPECIAL_CELLS)
    def test_any_float_matches_per_cell_format(self, cells):
        cv = report_of_cells(cells, DEFAULT_LEVELS)
        assert cv.to_csv().splitlines() == reference_cv_lines(cv)

    @settings(max_examples=60)
    @given(cv_reports())
    def test_text_stream_and_path_match_per_row_reference(self, cv):
        want = "\n".join(reference_cv_lines(cv)) + "\n"
        assert cv.to_csv() == want
        buffer = io.StringIO()
        assert cv.to_csv(buffer) is None
        assert buffer.getvalue() == want
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cv.csv")
            assert cv.to_csv(path) is None
            with open(path, encoding="utf-8", newline="") as fp:
                assert fp.read() == want


def validated_fold_rows(forecaster, panel, key, cutoff, h, levels):
    """Reference fold: a fully validated training panel, cells cast one by one."""
    series = panel[key]
    train = SeriesPanel(
        {key: Series(series.timestamps[:cutoff], series.values[:cutoff])}, panel.freq
    )
    frame = forecaster.forecast(train, h, levels)
    entry = frame[key]
    return [
        CrossValRow(
            key, cutoff, series.timestamps[cutoff - 1], forecaster.name, k + 1,
            series.timestamps[cutoff + k], float(series.values[cutoff + k]),
            float(entry.mean[k]),
            None if frame.levels is None else tuple(float(v) for v in entry.quantiles[k]),
        )
        for k in range(h)
    ]


def month_end_series(start_year, n):
    """Monthly series anchored on day 31: Jan 31, Feb 28/29, Mar 31, Apr 30, ..."""
    stamps = []
    for i in range(n):
        year, month = start_year + i // 12, i % 12 + 1
        stamps.append(datetime(year, month, calendar.monthrange(year, month)[1]))
    t = np.arange(n, dtype=float)
    return Series(tuple(stamps), 200.0 + 3.0 * t + 20.0 * np.sin(2 * np.pi * t / 12))


class FailingAutoModel(Forecaster):
    """Auto-model double whose fit fails: "raise" raises ValueError, "inf"
    returns an infinite forecast.  Either way it falls back to naive."""

    fallback_to_naive = True

    def __init__(self, how):
        self.name = f"failing_{how}"
        self.how = how

    def _forecast_series(self, y, m, h, levels):
        if self.how == "raise":
            raise ValueError("fit did not converge")
        mean = np.full(h, np.inf)
        return mean, None if levels is None else np.repeat(mean[:, None], len(levels), axis=1)


class TestFoldPath:
    """Folds train on prefixes of the validated panel without re-validating them."""

    @pytest.fixture()
    def stub(self):
        server = serve_stub(alias="theta")
        yield server
        server.close()

    def test_rows_equal_validated_panel_per_fold(self, air_passengers, stub):
        panel = SeriesPanel(
            {
                "AirPassengers": air_passengers["AirPassengers"],
                "month_end": month_end_series(2019, 50),
            },
            Frequency("M"),
        )
        models = [
            "naive", "seasonalnaive", "theta", "croston",
            "median_ensemble:naive+ses+theta", f"adapter:{stub.url}", LinearOracle(),
            FailingAutoModel("raise"), FailingAutoModel("inf"),
        ]
        h, n_windows, step = 6, 4, 5
        cv = cross_validate(panel, models, h, n_windows=n_windows, step=step)
        expected = []
        for model in models:
            forecaster = model if isinstance(model, Forecaster) else resolve_model(model)
            for key in panel.keys():
                plan = rolling_cutoffs(len(panel[key]), h, n_windows, step)
                for cutoff in plan.cutoffs:
                    expected.extend(
                        validated_fold_rows(forecaster, panel, key, cutoff, h, DEFAULT_LEVELS)
                    )
        assert not any(row.failed for row in cv.rows)
        assert len(cv.rows) == len(expected)
        for got, want in zip(cv.rows, expected):
            assert got == want
            assert all(type(v) is float for v in (got.y, got.yhat, *(got.quantiles or ())))
        for model in models[-2:]:
            assert all(entry.fallback for _, entry in model.forecast(panel, h).items())

        # No member forecasts quantiles, so default levels fail every fold,
        # whether the members are listed or not.
        ensemble = resolve_model("median_ensemble:croston+adida")
        cv = cross_validate(panel, [ensemble], h, n_windows=n_windows, step=step)
        assert cv.failed.all() and cv.quantiles == (None,)
        cv = cross_validate(panel, ["croston", ensemble, "adida"], h, n_windows=n_windows,
                            step=step)
        assert cv.failed[1].all() and not cv.failed[[0, 2]].any()
        assert cv.quantiles == (None, None, None)
        with pytest.raises(ConfigError):
            ensemble.forecast(panel, h)
        for key in panel.keys():
            for cutoff in rolling_cutoffs(len(panel[key]), h, n_windows, step).cutoffs:
                with pytest.raises(ConfigError):
                    validated_fold_rows(ensemble, panel, key, cutoff, h, DEFAULT_LEVELS)

    def test_month_end_prefixes_stay_on_the_grid(self):
        # Monthly from Jan 31, and yearly from Feb 28 2021 with the day-29
        # anchor showing only in 2024: the three-year prefix's largest day
        # (28) is below the full series' (29) and still reproduces each day.
        yearly = tuple(
            datetime(y, 2, calendar.monthrange(y, 2)[1]) for y in range(2021, 2031)
        )
        cases = [
            (month_end_series(2019, 50), Frequency("M")),
            (Series(yearly, np.arange(10.0)), Frequency("Y")),
        ]
        for series, freq in cases:
            SeriesPanel({"s": series}, freq)  # the full series is on the grid
            for k in range(1, len(series) + 1):
                prefix = Series(series.timestamps[:k], series.values[:k])  # a fold's prefix
                assert prefix.timestamps == series.timestamps[:k]
                assert _matches_grid(prefix.timestamps, freq)
                SeriesPanel({"s": prefix}, freq)  # full validation accepts it


class TestMase:
    def test_zero_error(self):
        assert mase([11, 12], [11, 12], list(range(1, 11)), 1) == 0.0

    def test_unit_error_unit_scale(self):
        assert mase([12, 13], [11, 12], list(range(1, 11)), 1) == pytest.approx(1.0)

    def test_constant_train_is_undefined(self):
        assert mase([1.0], [2.0], [5.0] * 8, 1) is None

    def test_periodic_train_is_undefined_at_seasonal_lag(self):
        train = [1.0, 2.0, 3.0, 4.0] * 5
        assert mase([1.0], [2.0], train, 4) is None
        assert mase([1.0], [2.0], train, 1) is not None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mase([1, 2], [1], [1, 2, 3], 1)

    def test_short_train_rejected(self):
        with pytest.raises(ValueError):
            mase([1.0], [1.0], [1.0], 1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        train = rng.normal(10, 2, 30)
        actual = rng.normal(10, 2, 6)
        forecast = rng.normal(10, 2, 6)
        base = mase(actual, forecast, train, 1)
        scaled = mase(3.7 * actual, 3.7 * forecast, 3.7 * train, 1)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        train = rng.normal(0, 1, 25)
        actual = rng.normal(0, 1, 4)
        forecast = rng.normal(0, 1, 4)
        base = mase(actual, forecast, train, 1)
        shifted = mase(actual + 100, forecast + 100, train + 100, 1)
        assert shifted == pytest.approx(base, rel=1e-12)


class TestPinball:
    def test_median_is_half_absolute_error(self):
        assert pinball(10.0, 8.0, 0.5) == pytest.approx(1.0)

    def test_high_level_weights_underprediction(self):
        assert pinball(10.0, 8.0, 0.9) == pytest.approx(1.8)

    def test_exact_prediction_scores_zero(self):
        assert pinball(7.0, 7.0, 0.3) == 0.0

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            pinball(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            pinball(1.0, 1.0, 1.0)

    def test_convex_in_the_prediction(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            y = float(rng.normal(0, 5))
            tau = float(rng.uniform(0.05, 0.95))
            p1 = float(rng.normal(0, 5))
            p2 = float(rng.normal(0, 5))
            mid = pinball(y, 0.5 * (p1 + p2), tau)
            avg = 0.5 * (pinball(y, p1, tau) + pinball(y, p2, tau))
            assert mid <= avg + 1e-12


class TestCrpsApprox:
    def test_single_median_level_reduces_to_absolute_error(self):
        assert crps_approx([10.0], [[8.0]], [0.5]) == pytest.approx(2.0, abs=1e-12)

    def test_perfect_quantiles_score_zero(self):
        q = [[4.0, 4.0, 4.0]]
        assert crps_approx([4.0], q, [0.25, 0.5, 0.75]) == 0.0

    def test_decile_closed_form(self):
        q = [[1.0] * 9]
        value = crps_approx([0.0], q, DEFAULT_LEVELS)
        assert value == pytest.approx(2.0 / 9.0 * 4.5, abs=1e-12)

    def test_matches_mae_of_median_forecast(self):
        rng = np.random.default_rng(31)
        y = rng.normal(0, 3, 50)
        med = rng.normal(0, 3, 50)
        value = crps_approx(y, med[:, None], [0.5])
        assert value == pytest.approx(float(np.mean(np.abs(y - med))), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crps_approx([1.0, 2.0], [[1.0]], [0.5])


class TestCoverage:
    def test_always_inside(self):
        q = [[0.0, 2.0], [4.0, 6.0]]
        assert coverage([1.0, 5.0], q, (0.1, 0.9), 0.1, 0.9) == 1.0

    def test_always_outside(self):
        q = [[2.0, 3.0], [2.0, 3.0]]
        assert coverage([1.0, 5.0], q, (0.1, 0.9), 0.1, 0.9) == 0.0

    def test_half_inside(self):
        q = [[0.0, 2.0], [0.0, 2.0]]
        assert coverage([1.0, 5.0], q, (0.1, 0.9), 0.1, 0.9) == 0.5

    def test_missing_level_rejected(self):
        with pytest.raises(ValueError):
            coverage([1.0], [[0.0, 2.0]], (0.1, 0.9), 0.2, 0.9)

    def test_band_order_enforced(self):
        with pytest.raises(ValueError):
            coverage([1.0], [[0.0, 2.0]], (0.1, 0.9), 0.9, 0.1)


class TestMetricOracles:
    def test_hundred_random_fixtures(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            h = int(rng.integers(1, 8))
            n_train = int(rng.integers(5, 40))
            m = int(rng.integers(1, min(4, n_train)))
            levels = sorted(rng.choice(np.arange(1, 100) / 100, size=5, replace=False))
            train = rng.normal(0, 10, n_train)
            y = rng.normal(0, 10, h)
            yhat = rng.normal(0, 10, h)
            q = np.sort(rng.normal(0, 10, (h, 5)), axis=1)

            got = mase(y, yhat, train, m)
            want = mase_oracle(list(y), list(yhat), list(train), m)
            assert got == pytest.approx(want, abs=1e-12)

            tau = float(levels[2])
            assert pinball(float(y[0]), float(yhat[0]), tau) == pytest.approx(
                pinball_oracle(float(y[0]), float(yhat[0]), tau), abs=1e-12
            )

            got_crps = crps_approx(y, q, levels)
            want_crps = crps_oracle(list(y), q.tolist(), [float(l) for l in levels])
            assert got_crps == pytest.approx(want_crps, abs=1e-12)


class TestAggregateLeaderboard:
    def test_perfect_model_scores_zero(self):
        panel = make_panel({"s": [float(v) for v in range(1, 31)]})
        cv = cross_validate(panel, [LinearOracle()], 5)
        report = aggregate_leaderboard(cv, panel)
        score = report["oracle"]
        assert score.rank == 1
        assert score.mase == pytest.approx(0.0, abs=1e-9)
        assert score.crps == pytest.approx(0.0, abs=1e-9)
        assert score.failures == 0

    def test_dominant_model_ranks_first(self):
        panel = make_panel({"s": [float(v) for v in range(1, 31)]})
        models = [LinearOracle("exact"), LinearOracle("biased", offset=10.0)]
        report = aggregate_leaderboard(cross_validate(panel, models, 5), panel)
        assert report.ranking() == ["exact", "biased"]
        assert report.ranked_by == "crps"
        assert report["exact"].crps < report["biased"].crps

    def test_seasonal_naive_beats_naive_on_air_passengers(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive", "naive"], 12, n_windows=2)
        report = aggregate_leaderboard(cv, air_passengers)
        assert report.ranking() == ["seasonalnaive", "naive"]
        assert report.ranked_by == "crps"

    def test_theta_beats_naive_on_air_passengers_point_accuracy(self, air_passengers):
        cv = cross_validate(air_passengers, ["theta", "naive"], 12)
        report = aggregate_leaderboard(cv, air_passengers)
        assert report["theta"].mase < report["naive"].mase

    def test_quantile_free_member_forces_mase_ranking(self, air_passengers):
        cv = cross_validate(air_passengers, ["naive", "croston"], 12)
        report = aggregate_leaderboard(cv, air_passengers)
        assert report.ranked_by == "mase"
        assert report["croston"].crps is None
        assert report["croston"].pinball_by_level == {}
        assert report["naive"].crps is not None

    def test_zero_series_excluded_from_crps(self):
        panel = make_panel({"live": [float(v) for v in range(1, 31)], "z": [0.0] * 30})
        report = aggregate_leaderboard(cross_validate(panel, ["naive"], 5), panel)
        score = report["naive"]
        assert score.crps_excluded == 1
        assert score.crps is not None

    def test_constant_series_excluded_from_mase(self):
        panel = make_panel({"c": [7.0] * 30, "v": [float(v) for v in range(1, 31)]})
        report = aggregate_leaderboard(cross_validate(panel, ["naive"], 5), panel)
        score = report["naive"]
        assert score.mase_excluded == 1
        assert score.mase is not None

    def test_failures_counted_and_metrics_survive(self):
        panel = make_panel({"s": [v % 12 + 1 + 0.01 * v for v in range(32)]})
        cv = cross_validate(panel, ["seasonalnaive"], 12, n_windows=2, step=12)
        report = aggregate_leaderboard(cv, panel)
        score = report["seasonalnaive"]
        assert score.failures == 1
        assert score.mase is not None

    def test_one_point_training_fold_has_no_mase(self):
        # 13 points at h=12: the only fold trains on one observation, which
        # has no lag-1 difference, so its MASE is undefined like a zero scale.
        panel = make_panel({
            "long": [float(v % 7) for v in range(40)],
            "one": [float(v % 5) + 1.0 for v in range(13)],
        })
        cv = cross_validate(panel, ["naive"], 12)
        assert cv.cutoffs.tolist() == [[28], [1]] and not cv.failed.any()
        score = aggregate_leaderboard(cv, panel)["naive"]
        assert score.mase_excluded == 1 and score.mase is not None
        assert score.crps_excluded == 0 and score.crps is not None

    def test_ties_break_on_model_name(self):
        panel = make_panel({"s": [float(v) for v in range(1, 31)]})
        models = [LinearOracle("bbb"), LinearOracle("aaa")]
        report = aggregate_leaderboard(cross_validate(panel, models, 5), panel)
        assert report.ranking() == ["aaa", "bbb"]

    def test_empty_report_rejected(self, air_passengers):
        cv = cross_validate(air_passengers, ["naive"], 12)
        empty = CrossValReport(
            model_names=cv.model_names,
            series=(),
            timestamps=(),
            cutoffs=np.zeros((0, 1), dtype=int),
            y=np.zeros((0, 1, 12)),
            yhat=np.zeros((1, 0, 1, 12)),
            quantiles=(None,),
            failed=np.zeros((1, 0, 1), dtype=bool),
            levels=cv.levels,
            h=12,
            n_windows=1,
            step=12,
        )
        with pytest.raises(ConfigError):
            aggregate_leaderboard(empty, air_passengers)

    def test_multi_fold_mase_matches_manual_average(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive"], 12, n_windows=2)
        report = aggregate_leaderboard(cv, air_passengers)
        y = air_passengers["AirPassengers"].values
        manual = []
        for cutoff in (120, 132):
            rows = sorted(
                (r for r in cv.rows if r.cutoff == cutoff), key=lambda r: r.step
            )
            manual.append(
                mase([r.y for r in rows], [r.yhat for r in rows], y[:cutoff], 12)
            )
        assert report["seasonalnaive"].mase == pytest.approx(
            float(np.mean(manual)), rel=1e-12
        )

    def test_coverage_is_the_outer_band(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive"], 12)
        report = aggregate_leaderboard(cv, air_passengers)
        rows = [r for r in cv.rows]
        y = np.array([r.y for r in rows])
        q = np.array([r.quantiles for r in rows])
        manual = coverage(y, q, cv.levels, 0.1, 0.9)
        assert report["seasonalnaive"].coverage == pytest.approx(manual, abs=1e-12)

    def test_csv_round_shape(self, air_passengers):
        cv = cross_validate(air_passengers, ["seasonalnaive", "naive"], 12)
        report = aggregate_leaderboard(cv, air_passengers)
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("model,rank,mase,crps,coverage,failures")
        assert len(lines) == 3
        assert lines[1].startswith("seasonalnaive,1,")
