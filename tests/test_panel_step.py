"""The panel step: one block per (model, fold, prefix length) for the array
models, equal byte for byte to the per-series step it replaced."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcast.adapters import EnsembleForecaster, resolve_model
from agentcast.datasets import load_air_passengers
from agentcast.errors import _FORECAST_FAILURES, NonFiniteForecastError
from agentcast.evaluation import aggregate_leaderboard, cross_validate
from agentcast.models import Naive, arima, available_models, get_model
from agentcast.panel import DEFAULT_LEVELS, Series, SeriesPanel, frames_to_csv

from conftest import make_panel
from test_evaluation import seeded_month_end_panel

# SHA-256 over frames_to_csv of every registry alias's forecast at h=12,
# then each entry's fallback flag, on AirPassengers and the seeded
# month-end panel at the default levels and at None; frozen before the
# panel step existed, re-frozen when the ARIMA fit moved to
# Levenberg-Marquardt and when its Jacobian became analytic (only
# autoarima's rows move).
FORECAST_PATH_DIGEST = "cfd8ec522aa3dc2cc62bb6d389ee2d4f342f79e03b40452df668693e8df2d900"


def test_forecast_path_digest(monkeypatch):
    # Both level settings fit the same series, and an ARIMA fit depends on
    # (y, m) alone, so the second setting reads the first one's fits back.
    fit_once = functools.lru_cache(maxsize=None)(
        lambda data, m, fit=arima.arima_fit: fit(np.frombuffer(data), m)
    )
    monkeypatch.setattr(arima, "arima_fit", lambda y, m: fit_once(y.tobytes(), m))
    digest = hashlib.sha256()
    for panel in (load_air_passengers(), seeded_month_end_panel()):
        for levels in (DEFAULT_LEVELS, None):
            frames = [get_model(alias).forecast(panel, 12, levels) for alias in available_models()]
            digest.update(frames_to_csv(frames).encode())
            digest.update(bytes(entry.fallback for frame in frames for _, entry in frame.items()))
    assert digest.hexdigest() == FORECAST_PATH_DIGEST


BLOCK_MODELS = ["naive", "seasonalnaive", "historicaverage", "croston", "adida"]
ENSEMBLES = [
    "median_ensemble:naive+seasonalnaive+historicaverage",
    "median_ensemble:seasonalnaive+croston",
    "median_ensemble:croston+adida",
]
KINDS = ("normal", "zero_heavy", "all_zero", "constant", "huge", "sparse_huge")


def row_values(kind, n, rng):
    if kind == "normal":
        return rng.normal(100.0, 10.0, n)
    if kind == "zero_heavy":
        return np.where(rng.random(n) < 0.8, 0.0, rng.poisson(3.0, n) + 1.0)
    if kind == "all_zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.uniform(-5.0, 5.0))
    if kind == "huge":  # naive's and historicaverage's spreads overflow
        return rng.normal(0.0, 1e200, n)
    # ADIDA's bucket sums overflow where two demands share a bucket
    return np.where(rng.random(n) < 0.5, 0.0, 1.5e308)


@st.composite
def panels(draw):
    """Up to 8 monthly series whose lengths repeat, so blocks hold several rows."""
    # lengths 1-14 straddle the season length m = 12
    length = st.one_of(st.integers(1, 14), st.integers(1, 150))
    lengths = draw(st.lists(length, min_size=1, max_size=3))
    row = st.tuples(st.sampled_from(lengths), st.sampled_from(KINDS))
    kinds = draw(st.lists(row, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_panel({f"s{i}": row_values(kind, n, rng) for i, (n, kind) in enumerate(kinds)})


def scalar_step(model, key, series, freq, h, levels):
    try:
        return model._forecast_values(key, series, freq, h, levels)
    except _FORECAST_FAILURES as exc:
        return exc


def assert_same_result(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got[0].tobytes() == want[0].tobytes()
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


class TestPanelStepEqualsScalarStep:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("levels", [DEFAULT_LEVELS, None])
    @pytest.mark.parametrize("alias", BLOCK_MODELS)
    @settings(max_examples=60)
    @given(panel=panels(), h=st.sampled_from([1, 5, 12]))
    def test_block_rows_equal_per_series_steps(self, alias, levels, panel, h):
        model = get_model(alias)
        keys = panel.keys()
        series = [panel[key] for key in keys]
        want = [scalar_step(model, k, s, panel.freq, h, levels) for k, s in zip(keys, series)]
        got = list(model._forecast_panel(keys, series, panel.freq, h, levels))
        for g, w in zip(got, want, strict=True):
            assert_same_result(g, w)
        # The block itself, not its per-row rerun, gives every row whose
        # per-series step succeeds.
        for n in {len(s) for s in series}:
            rows = [i for i, s in enumerate(series) if len(s) == n]
            try:
                mean, q = model._forecast_block(
                    np.array([series[i].values for i in rows]), panel.freq.season_length, h, levels
                )
            except _FORECAST_FAILURES:
                assert all(isinstance(want[i], Exception) for i in rows)
                continue
            for r, i in enumerate(rows):
                if not isinstance(want[i], Exception):
                    assert_same_result((mean[r], None if q is None else q[r], False), want[i])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("levels", [DEFAULT_LEVELS, None])
    @pytest.mark.parametrize("spec", BLOCK_MODELS + ENSEMBLES)
    @settings(max_examples=30)
    @given(panel=panels(), h=st.sampled_from([1, 5, 12]))
    def test_cross_validation_equals_per_series_steps(self, spec, levels, panel, h):
        # Two folds need 2h + 1 observations.
        keep = {key: panel[key] for key in panel.keys() if len(panel[key]) > 2 * h}
        if not keep:
            return
        panel = SeriesPanel(keep, panel.freq)
        model = resolve_model(spec)
        cv = cross_validate(panel, [model], h, n_windows=2, levels=levels)
        for si, key in enumerate(cv.series):
            for fi, cutoff in enumerate(cv.cutoffs[si].tolist()):
                s = panel[key]
                train = Series(s.timestamps[:cutoff], s.values[:cutoff])
                want = scalar_step(model, key, train, panel.freq, h, levels)
                assert cv.failed[0, si, fi] == isinstance(want, Exception)
                if cv.failed[0, si, fi]:
                    continue
                q = cv.quantiles[0]
                assert_same_result(
                    (cv.yhat[0, si, fi], None if q is None else q[si, fi], want[2]), want
                )


LENGTHS = [*range(1, 10), *range(127, 131), *range(255, 259)]


def row_block(n, rows=6):
    rng = np.random.default_rng(n)
    return rng.normal(rng.uniform(-1e3, 1e3, (rows, 1)), rng.uniform(0.1, 1e3, (rows, 1)), (rows, n))


class TestRowReductions:
    """The reductions along axis 1 equal the 1-D call on each row, around
    numpy's pairwise-summation blocks too."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", LENGTHS)
    def test_axis_one_equals_each_row(self, n):
        Y = row_block(n)
        Z = np.where(Y > 0.0, Y, 0.0)
        for block, rows in (
            (Y.mean(axis=1), [y.mean() for y in Y]),
            (Y.std(axis=1), [y.std() for y in Y]),
            (Y.std(axis=1, ddof=1), [y.std(ddof=1) for y in Y]),
            (Y.var(axis=1), [np.var(y) for y in Y]),
            (np.sum(np.cumsum(Y, axis=1) ** 2, axis=1), [np.sum(np.cumsum(y) ** 2) for y in Y]),
            ((Z == 0.0).mean(axis=1), [np.mean(z == 0.0) for z in Z]),
        ):
            assert block.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("m", [2, 3, 12])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_phase_columns_equal_each_rows_phase_selection(self, n, m):
        # features.phase_means takes every m-th column; the per-series
        # reference selects a phase's points with a boolean mask
        Y = row_block(n)
        phases = np.arange(n) % m
        for phase in range(min(m, n)):
            rows = [y[phases == phase].mean() for y in Y]
            assert Y[:, phase::m].mean(axis=1).tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("lag", [1, 12])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_prefix_mean_of_lag_differences(self, n, lag):
        # evaluation._mase_scales: a prefix of each row of the differences block
        Y = row_block(n + lag)
        D = np.abs(Y[:, lag:] - Y[:, :-lag])
        for k in sorted({1, n // 2 or 1, n}):
            rows = [np.mean(np.abs(y[lag:] - y[:-lag])[:k]) for y in Y]
            assert D[:, :k].mean(axis=1).tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("folds", [1, 3, 5])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_fold_step_block_mean(self, n, folds):
        # evaluation._score_model: a series' cells over (fold, step) with
        # every fold successful, against its boolean fold selection
        X = row_block(folds * n).reshape(6, folds, n)
        every = np.ones(folds, dtype=bool)
        rows = [np.mean(x[every]) for x in X]
        assert X.reshape(6, -1).mean(axis=1).tobytes() == np.array(rows).tobytes()


def huge_panel():
    """Nine ordinary 48-point series and one 1e200-scale series of the same
    length, whose naive spread overflows."""
    rng = np.random.default_rng(5)
    values = {f"ok{i}": row_values(("normal", "zero_heavy")[i % 2], 48, rng) for i in range(6)}
    values["huge"] = np.random.default_rng(0).normal(0.0, 1e200, 48)
    values.update({f"ok{i}": row_values("normal", 48, rng) for i in range(6, 9)})
    return make_panel(values)


class TestFailureIsolation:
    MODELS = ["naive", "croston", "median_ensemble:naive+croston"]
    # SHA-256 over the leaderboard CSVs of huge_panel and of huge_panel plus
    # a series whose last fold fails and one whose first fold has a zero
    # MASE scale, both at 3 folds of 12; frozen before the leaderboard ran
    # on length blocks.
    LEADERBOARD_DIGEST = "7536fd832b199a340ad958a9c56fb1f2c3dde24bf00a8fea8a930be1fa583d03"

    def test_leaderboard_with_partly_failed_folds_is_frozen(self):
        panel = huge_panel()
        values = {key: panel[key].values for key in panel.keys()}
        late = np.random.default_rng(7).normal(100.0, 10.0, 48)
        late[30:] = np.random.default_rng(8).normal(0.0, 1e200, 18)
        flat = np.random.default_rng(9).normal(50.0, 5.0, 48)
        flat[:20] = 5.0
        partly = make_panel({**values, "late_huge": late, "flat_start": flat})
        digest = hashlib.sha256()
        for p in (panel, partly):
            cv = cross_validate(p, self.MODELS, 12, n_windows=3)
            digest.update(aggregate_leaderboard(cv, p).to_csv().encode())
        late_folds = cv.failed[:, cv.series.index("late_huge")].tolist()
        assert late_folds == [[False, False, True], [False] * 3, [False, False, True]]
        assert digest.hexdigest() == self.LEADERBOARD_DIGEST

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_only_the_overflowing_series_fails(self):
        panel = huge_panel()
        cv = cross_validate(panel, self.MODELS, 12, n_windows=3)
        huge = cv.series.index("huge")
        assert cv.failed[0, huge].all() and cv.failed[2, huge].all()
        assert cv.failed.sum() == 6
        rest = SeriesPanel({k: panel[k] for k in panel.keys() if k != "huge"}, panel.freq)
        alone = cross_validate(rest, self.MODELS, 12, n_windows=3)
        others = [si for si in range(len(cv.series)) if si != huge]
        assert cv.yhat[:, others].tobytes() == alone.yhat.tobytes()
        assert not alone.failed.any()
        for q, q_alone in zip(cv.quantiles, alone.quantiles):
            assert (q is None) == (q_alone is None)
            if q is not None:
                assert q[others].tobytes() == q_alone.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_forecast_raises_for_the_first_failing_series_in_panel_order(self):
        # Panels keep their keys sorted.  "fail_60" is the only series of
        # its length, so the 48-point block, which holds "huge", runs first;
        # the panel order still decides which failure is raised.
        panel = huge_panel()
        values = {key: panel[key].values for key in panel.keys()}
        values["aa"] = values["ok0"]
        values["fail_60"] = np.random.default_rng(1).normal(0.0, 1e200, 60)
        panel = make_panel(values)
        assert panel.keys()[:3] == ["aa", "fail_60", "huge"]
        with pytest.raises(NonFiniteForecastError) as err:
            get_model("naive").forecast(panel, 12)
        assert err.value.category == "non-finite-forecast"
        assert str(err.value) == "naive gave a non-finite forecast for series 'fail_60'"
        with pytest.raises(NonFiniteForecastError, match="series 'huge'"):
            get_model("naive").forecast(huge_panel(), 12)

    def test_programming_error_in_a_block_propagates(self):
        class BrokenBlock(Naive):
            name = "brokenblock"

            def _forecast_block(self, Y, m, h, levels):
                raise TypeError("unsupported operand type(s)")

        with pytest.raises(TypeError):
            cross_validate(huge_panel(), [BrokenBlock()], 12, n_windows=2)


class TestCallBudget:
    def test_one_block_per_model_and_fold(self, monkeypatch):
        calls = {}

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(self, *args):
                calls[self.name] = calls.get(self.name, 0) + 1
                return method(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        for alias in BLOCK_MODELS:  # Adida runs the block Croston defines
            if "_forecast_block" in vars(type(get_model(alias))):
                counted(type(get_model(alias)), "_forecast_block")
        counted(EnsembleForecaster, "_combine")
        rng = np.random.default_rng(9)
        panel = make_panel({f"s{i}": row_values(KINDS[i % 4], 60, rng) for i in range(40)})
        ensemble = "median_ensemble:naive+seasonalnaive+historicaverage"
        cv = cross_validate(panel, BLOCK_MODELS + [ensemble], 12, n_windows=3)
        assert cv.yhat.shape[:3] == (6, 40, 3)
        assert calls == {**{alias: 3 for alias in BLOCK_MODELS}, resolve_model(ensemble).name: 3}
