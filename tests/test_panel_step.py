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
from agentcast.evaluation import cross_validate
from agentcast.models import Naive, arima, available_models, get_model
from agentcast.panel import DEFAULT_LEVELS, Series, SeriesPanel, frames_to_csv

from conftest import make_panel
from test_evaluation import seeded_month_end_panel

# SHA-256 over frames_to_csv of every registry alias's forecast at h=12,
# then each entry's fallback flag, on AirPassengers and the seeded
# month-end panel at the default levels and at None; frozen before the
# panel step existed.
FORECAST_PATH_DIGEST = "fbb34792579a7707b3aee641fb4d5a85e0d17f7b1e88d9bb6f52e61b05428ee1"


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


class TestRowReductions:
    """The reductions along axis 1 equal the 1-D call on each row, around
    numpy's pairwise-summation blocks too."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [*range(1, 10), *range(127, 131), *range(255, 259)])
    def test_axis_one_equals_each_row(self, n):
        rng = np.random.default_rng(n)
        Y = rng.normal(rng.uniform(-1e3, 1e3, (6, 1)), rng.uniform(0.1, 1e3, (6, 1)), (6, n))
        for block, rows in (
            (Y.mean(axis=1), [y.mean() for y in Y]),
            (Y.std(axis=1), [y.std() for y in Y]),
            (Y.std(axis=1, ddof=1), [y.std(ddof=1) for y in Y]),
        ):
            assert block.tobytes() == np.array(rows).tobytes()


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
