import hashlib
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter
from scipy.special import ndtri

from agentcast.errors import (
    InsufficientDataError,
    NonFiniteForecastError,
    SeriesTooShortError,
    UnknownModelError,
)
from agentcast.features import decompose
from agentcast.models import (
    Forecaster,
    MODEL_REGISTRY,
    arima_fit,
    available_models,
    differencing_orders,
    ets_fit,
    forecast_arima,
    get_model,
    ses_fit,
)
from agentcast.models import arima
from agentcast.models.arima import (
    _css_least_squares,
    _damped_steps,
    _fit_candidate,
    _lag_polys,
    _roots_outside,
)
from agentcast.models.base import _EXPM2, _ndtri, _z_scores, gaussian_quantiles
from agentcast.models.ets import SEASONS, TRENDS, _smooth
from agentcast.panel import DEFAULT_LEVELS, future_grid, parse_panel

from conftest import TypeErrorForecaster, make_panel, parse_monthly
from test_evaluation import seeded_month_end_panel

GAUSSIAN_MODELS = ["naive", "seasonalnaive", "historicaverage", "ses", "theta", "autoarima"]
ADDITIVE_MODELS = ["naive", "seasonalnaive", "historicaverage", "ses", "theta", "autoets"]


def one(frame):
    """The single entry of a one-series frame."""
    return frame[frame.keys()[0]]


def sha256_of(*parts):
    """Hex SHA-256 over raw bytes and the float64 bytes of arrays."""
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            part = np.asarray(part, dtype=float).tobytes()
        h.update(part)
    return h.hexdigest()


class TestRegistry:
    def test_aliases(self):
        assert available_models() == [
            "naive", "seasonalnaive", "historicaverage", "ses", "theta",
            "autoets", "autoarima", "croston", "adida",
        ]

    def test_unknown_alias(self):
        with pytest.raises(UnknownModelError):
            get_model("prophet")

    def test_instances_are_fresh(self):
        assert get_model("naive") is not get_model("naive")


class TestNaive:
    def test_repeats_last_observation(self):
        panel = make_panel({"s": [5.0, 7.0]})
        entry = one(get_model("naive").forecast(panel, 3))
        np.testing.assert_allclose(entry.mean, [7.0, 7.0, 7.0])

    def test_constant_series_zero_width(self):
        panel = make_panel({"s": [4.0] * 10})
        entry = one(get_model("naive").forecast(panel, 5))
        assert np.all(entry.quantiles == 4.0)

    def test_median_equals_point(self):
        panel = make_panel({"s": [0.0, 2.0, 0.0, 2.0]})
        frame = get_model("naive").forecast(panel, 1, levels=(0.5,))
        entry = one(frame)
        np.testing.assert_allclose(entry.quantiles[:, 0], [2.0])

    def test_uncertainty_grows_like_sqrt_k(self):
        panel = make_panel({"s": [1.0, 3.0, 2.0, 5.0, 4.0, 6.0]})
        entry = one(get_model("naive").forecast(panel, 4, levels=(0.1, 0.9)))
        widths = entry.quantiles[:, 1] - entry.quantiles[:, 0]
        np.testing.assert_allclose(widths, widths[0] * np.sqrt(np.arange(1, 5)))

    def test_zero_horizon_rejected(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError):
            get_model("naive").forecast(panel, 0)


class TestSeasonalNaive:
    def test_repeats_last_cycle(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]}, unit="Q")
        entry = one(get_model("seasonalnaive").forecast(panel, 4))
        np.testing.assert_allclose(entry.mean, [1.0, 2.0, 3.0, 4.0])

    def test_wraps_beyond_one_period(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]}, unit="Q")
        entry = one(get_model("seasonalnaive").forecast(panel, 6))
        np.testing.assert_allclose(entry.mean, [1.0, 2.0, 3.0, 4.0, 1.0, 2.0])

    def test_m1_reduces_to_naive(self):
        panel = make_panel({"s": [5.0, 7.0]}, unit="Y")
        entry = one(get_model("seasonalnaive").forecast(panel, 2))
        np.testing.assert_allclose(entry.mean, [7.0, 7.0])

    def test_too_short_series_rejected(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0]}, unit="Q")
        with pytest.raises(SeriesTooShortError):
            get_model("seasonalnaive").forecast(panel, 2)


class TestHistoricAverage:
    def test_mean_forecast(self):
        panel = make_panel({"s": [2.0, 4.0]})
        entry = one(get_model("historicaverage").forecast(panel, 2))
        np.testing.assert_allclose(entry.mean, [3.0, 3.0])

    def test_single_observation(self):
        panel = make_panel({"s": [5.0]})
        entry = one(get_model("historicaverage").forecast(panel, 1))
        np.testing.assert_allclose(entry.mean, [5.0])

    def test_hand_mean(self):
        panel = make_panel({"s": [1.0, 1.0, 1.0, 7.0]})
        entry = one(get_model("historicaverage").forecast(panel, 1))
        np.testing.assert_allclose(entry.mean, [2.5])

    def test_flat_uncertainty(self):
        panel = make_panel({"s": [1.0, 5.0, 2.0, 4.0, 3.0]})
        entry = one(get_model("historicaverage").forecast(panel, 4, levels=(0.2, 0.8)))
        widths = entry.quantiles[:, 1] - entry.quantiles[:, 0]
        np.testing.assert_allclose(widths, widths[0])


class TestSES:
    def test_alpha_one_tracks_last_value(self):
        state = ses_fit(np.array([3.0, 9.0, 4.0]), alpha=1.0)
        assert state.level == 4.0

    def test_half_alpha_hand_recursion(self):
        state = ses_fit(np.array([2.0, 4.0]), alpha=0.5)
        assert state.level == 3.0

    def test_constant_series(self):
        state = ses_fit(np.full(10, 6.0), alpha=0.3)
        assert state.level == pytest.approx(6.0, abs=1e-12)

    def test_level_initialized_to_first_observation(self):
        # from 8 the level steps to 8 - 0.5 * 7 = 4.5; the one-step errors
        # -7 and -3.5 have standard deviation 1.75
        assert ses_fit(np.array([8.0, 1.0]), 0.5).level == 4.5
        assert ses_fit(np.array([8.0, 1.0, 1.0]), 0.5).residual_sd == 1.75

    def test_grid_picks_high_alpha_on_trending_series(self):
        state = ses_fit(np.arange(1.0, 40.0))
        assert state.alpha > 0.8

    def test_empty_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            ses_fit(np.array([]))

    def test_alpha_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            ses_fit(np.array([1.0, 2.0]), alpha=1.5)

    def test_forecast_is_flat(self):
        panel = make_panel({"s": [1.0, 2.0, 6.0, 3.0, 4.0]})
        entry = one(get_model("ses").forecast(panel, 3))
        assert entry.mean[0] == entry.mean[1] == entry.mean[2]


def plain_ses_errors(y, alpha):
    """Reference SES one-step errors of y[1:]: level starts at y[0], plain loop."""
    level, errors = y[0], []
    for obs in y[1:]:
        e = obs - level
        errors.append(e)
        level += alpha * e
    return errors


def plain_ses_sse(y, alpha):
    sse = 0.0
    for e in plain_ses_errors(y, alpha):
        sse += e * e
    return sse


def plain_ses_level(y, alpha):
    level = y[0]
    for obs in y[1:]:
        level = alpha * obs + (1.0 - alpha) * level
    return level


finite_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def structure_rows(draw, trend, season, m):
    """Starting states and parameter rows for one ETS structure."""
    level = draw(finite_values)
    slope = draw(finite_values) if trend != "N" else 0.0
    if season == "A":
        seasonal = draw(st.lists(finite_values, min_size=m, max_size=m))
    else:
        seasonal = [0.0] * m
    unit = st.floats(0.0, 1.0)
    row = st.tuples(
        unit,
        unit if trend != "N" else st.just(0.0),
        unit if season == "A" else st.just(0.0),
        st.floats(0.8, 0.98) if trend == "Ad" else st.just(1.0 if trend == "A" else 0.0),
    )
    rows = draw(st.lists(row, min_size=1, max_size=8))
    return (level, slope, seasonal), rows


@st.composite
def recursion_cases(draw, trend, season):
    """A series, starting states and parameter rows for one ETS structure."""
    m = draw(st.sampled_from([1, 2, 4, 12]))
    y = np.array(draw(st.lists(finite_values, min_size=1, max_size=40)))
    init, rows = draw(structure_rows(trend, season, m))
    return y, init, rows


@st.composite
def mixed_structure_cases(draw):
    """A series and (states, parameters) rows of mixed ETS structures, each
    structure drawn with its own starting states, as the AutoETS fit batches
    them."""
    m = draw(st.sampled_from([1, 2, 4, 12]))
    y = np.array(draw(st.lists(finite_values, min_size=1, max_size=40)))
    structures = st.tuples(st.sampled_from(TRENDS), st.sampled_from(SEASONS))
    runs = []
    for trend, season in draw(st.lists(structures, min_size=1, max_size=6)):
        init, rows = draw(structure_rows(trend, season, m))
        runs += [(init, row) for row in rows]
    return y, runs


def row_bytes(value, i, count):
    """Bytes of row ``i`` of a batch result (a float if never updated)."""
    return np.broadcast_to(np.asarray(value, dtype=float), (count,))[i].tobytes()


def smooth_with_fitted(*args):
    """``_smooth``'s result followed by the one-step forecasts it was asked for."""
    fitted = []
    return (*_smooth(*args, fitted=fitted), fitted)


def assert_row_is_scalar_run(batch, i, count, scalar):
    """Row ``i`` of a ``count``-row ``_smooth`` result equals a scalar run."""
    sse, level, slope, seasonal, fitted = batch
    one_sse, one_level, one_slope, one_seasonal, one_fitted = scalar
    assert row_bytes(sse, i, count) == np.float64(one_sse).tobytes()
    assert row_bytes(level, i, count) == np.float64(one_level).tobytes()
    assert row_bytes(slope, i, count) == np.float64(one_slope).tobytes()
    for got, want in zip(seasonal, one_seasonal, strict=True):
        assert row_bytes(got, i, count) == np.float64(want).tobytes()
    for got, want in zip(fitted, one_fitted, strict=True):
        assert row_bytes(got, i, count) == np.float64(want).tobytes()


class TestSmoothRecursion:
    @pytest.mark.parametrize("trend", TRENDS)
    @pytest.mark.parametrize("season", SEASONS)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_batch_rows_equal_scalar_runs(self, trend, season, data):
        y, init, rows = data.draw(recursion_cases(trend, season))
        batch = smooth_with_fitted(y, *init, *np.array(rows).T)
        for i, row in enumerate(rows):
            assert_row_is_scalar_run(batch, i, len(rows), smooth_with_fitted(y, *init, *row))
        # not asking for the one-step forecasts changes nothing else
        plain = _smooth(y, *init, *np.array(rows).T)
        assert sha256_of(*plain[:3], *plain[3]) == sha256_of(*batch[:3], *batch[3])

    @settings(max_examples=100)
    @given(data=st.data())
    def test_rows_with_own_states_equal_scalar_runs(self, data):
        y, runs = data.draw(mixed_structure_cases())
        level = np.array([init[0] for init, _ in runs])
        slope = np.array([init[1] for init, _ in runs])
        seasonal = list(np.array([init[2] for init, _ in runs]).T)
        weights = np.array([row for _, row in runs]).T
        batch = smooth_with_fitted(y, level, slope, seasonal, *weights)
        for i, (init, row) in enumerate(runs):
            assert_row_is_scalar_run(batch, i, len(runs), smooth_with_fitted(y, *init, *row))

    @settings(max_examples=200)
    @given(st.lists(finite_values, min_size=1, max_size=60))
    def test_ses_alpha_matches_plain_loop(self, values):
        y = np.array(values)
        grid = np.arange(1, 100) / 100.0
        expected = grid[int(np.argmin([plain_ses_sse(y, a) for a in grid]))]
        state = ses_fit(y)
        assert state.alpha == expected
        # The level update moved from alpha*y + (1-alpha)*level to the
        # error-correction form; both agree up to float64 rounding.
        tol = 256 * np.finfo(float).eps * max(1.0, np.abs(y).max())
        assert abs(state.level - plain_ses_level(y, state.alpha)) <= tol
        errors = plain_ses_errors(y, state.alpha)
        assert state.residual_sd == (np.std(errors) if errors else 0.0)


class TestTheta:
    def test_constant_series(self):
        panel = make_panel({"s": [5.0] * 20})
        entry = one(get_model("theta").forecast(panel, 3))
        np.testing.assert_allclose(entry.mean, [5.0, 5.0, 5.0])

    def test_linear_series_keeps_growing(self):
        panel = make_panel({"s": [2.0 * t for t in range(1, 11)]})
        entry = one(get_model("theta").forecast(panel, 2))
        assert entry.mean[1] > entry.mean[0]
        assert np.all(entry.mean >= 20.0)

    def test_too_short_series_rejected(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0]})
        with pytest.raises(InsufficientDataError):
            get_model("theta").forecast(panel, 2)

    def test_seasonal_route_reseasonalizes(self, air_passengers):
        entry = one(get_model("theta").forecast(air_passengers, 12))
        # monthly shape should survive: July above the annual level, November below
        assert entry.mean[6] > entry.mean.mean()
        assert entry.mean[10] < entry.mean.mean()

    def test_nonpositive_data_uses_plain_route(self):
        pattern = np.tile([10.0, -1.0, 4.0, 8.0], 8)
        panel = make_panel({"s": pattern})
        entry = one(get_model("theta").forecast(panel, 4, levels=(0.5,)))
        assert np.all(np.isfinite(entry.mean))
        assert np.all(np.isfinite(entry.quantiles))


class TestSeasonalPatternBytes:
    def test_decompose_and_simple_models_are_frozen(self, air_passengers):
        # One SHA-256 over the decompose components (at the panel's season
        # length and at m = 1) and the theta, ses, croston and adida
        # forecasts with quantiles, or the error a call raised.
        y = air_passengers["AirPassengers"].values
        rng = np.random.default_rng(1515)
        t = np.arange(96.0)
        strong = 100.0 + 0.5 * t + 20.0 * np.sin(2.0 * np.pi * t / 12.0) + rng.normal(0.0, 1.0, 96)
        weak = 100.0 + 0.3 * t + np.sin(2.0 * np.pi * t / 12.0) + rng.normal(0.0, 5.0, 96)
        holding_zero = strong.copy()
        holding_zero[40] = 0.0
        intermittent = rng.poisson(2.0, 60) * (rng.random(60) < 0.8)
        quarterly = 50.0 + np.tile([8.0, -3.0, 5.0, -10.0], 10) + rng.normal(0.0, 0.5, 40)
        daily = 30.0 + np.tile([4.0, 1.0, 0.0, -1.0, -2.0, 3.0, -5.0], 8) + rng.random(56)
        cases = [(y[:k], "M") for k in (23, 24, 25, 36, 60, 132)] + [(y, "M")]
        cases += [(strong, "M"), (weak, "M"), (holding_zero, "M"), (strong[:23], "M"),
                  (intermittent, "M"), (quarterly, "Q"), (daily, "D")]
        parts = []
        for values, unit in cases:
            panel = make_panel({"s": list(values)}, unit=unit)
            for m in (panel.season_length, 1):
                try:
                    d = decompose(values, m)
                    parts += [d.trend, d.seasonal, d.remainder]
                except InsufficientDataError as exc:
                    parts.append(str(exc).encode())
            for alias in ("theta", "ses", "croston", "adida"):
                entry = one(get_model(alias).forecast(panel, 12))
                quantiles = b"none" if entry.quantiles is None else entry.quantiles
                parts += [alias.encode(), entry.mean, quantiles, [entry.fallback]]
        assert sha256_of(*parts) == (
            "e4252ea2d97c974ca78f5feaa1d5edb3028a7724ed15bed083aa429052a78c29"
        )


class TestAutoETS:
    def test_constant_series_degenerates_to_level(self):
        fit = ets_fit(np.full(30, 7.0), 1)
        assert fit.params.trend == "N"
        assert fit.params.season == "N"
        np.testing.assert_allclose(fit.forecast_mean(3), [7.0, 7.0, 7.0])

    def test_winner_has_lowest_aicc(self, air_passengers):
        y = air_passengers["AirPassengers"].values
        fit = ets_fit(y, 12)
        table = dict(fit.candidates)
        assert len(table) == 6
        assert fit.params.aicc <= min(table.values()) + 1e-9

    def test_airpassengers_selects_seasonal_structure(self, air_passengers):
        y = air_passengers["AirPassengers"].values
        fit = ets_fit(y, 12)
        assert fit.params.season == "A"

    def test_parameter_constraints_hold(self, air_passengers):
        y = air_passengers["AirPassengers"].values
        p = ets_fit(y, 12).params
        assert 0.0 <= p.alpha <= 1.0
        if p.beta is not None:
            assert p.beta <= p.alpha
        if p.gamma is not None:
            assert p.gamma <= 1.0 - p.alpha
        if p.initial_seasonal is not None:
            assert abs(sum(p.initial_seasonal)) < 1e-6

    def test_alpha_recovery_monte_carlo(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            alpha, level = 0.3, 10.0
            y = np.empty(300)
            for t in range(300):
                e = rng.normal(0.0, 1.0)
                y[t] = level + e
                level += alpha * e
            fit = ets_fit(y, 1)
            if abs(fit.params.alpha - 0.3) <= 0.15:
                hits += 1
        assert hits >= 80

    def test_seasonal_selection_monte_carlo(self):
        pattern = 10.0 * np.sin(2.0 * np.pi * np.arange(12) / 12.0)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = 50.0 + pattern[np.arange(120) % 12] + rng.normal(0.0, 1.0, 120)
            if ets_fit(y, 12).params.season == "A":
                hits += 1
        assert hits >= 95

    def test_simulation_quantiles_are_reproducible(self, air_passengers):
        model = get_model("autoets")
        a = one(model.forecast(air_passengers, 6)).quantiles
        b = one(model.forecast(air_passengers, 6)).quantiles
        np.testing.assert_array_equal(a, b)

    def test_quantiles_widen_with_horizon(self, air_passengers):
        entry = one(get_model("autoets").forecast(air_passengers, 12))
        width = entry.quantiles[:, -1] - entry.quantiles[:, 0]
        assert width[-1] > width[0]

    def test_short_series_falls_back_to_naive(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0, 4.0]})
        entry = one(get_model("autoets").forecast(panel, 2))
        assert entry.fallback
        np.testing.assert_allclose(entry.mean, [4.0, 4.0])

    def test_airpassengers_bytes_are_frozen(self, air_passengers):
        # SHA-256 of the float64 bytes, frozen before the grid search, the
        # end states and SES shared one recursion; refactors keep them.
        def digest(*parts):
            h = hashlib.sha256()
            for part in parts:
                if not isinstance(part, bytes):
                    part = np.asarray(part, dtype=float).tobytes()
                h.update(part)
            return h.hexdigest()

        entry = one(get_model("autoets").forecast(air_passengers, 12))
        fit = ets_fit(air_passengers["AirPassengers"].values, 12)
        labels = "|".join(label for label, _ in fit.candidates).encode()
        assert {
            "mean": digest(entry.mean),
            "quantiles": digest(entry.quantiles),
            "states": digest([fit.final_level, fit.final_slope], fit.final_seasonal),
            "candidates": digest(labels, [aicc for _, aicc in fit.candidates]),
        } == {
            "mean": "50de38088f63fe1db0c936e697ad1456fc37a8119e174ed192b693bec140338a",
            "quantiles": "ce60a1bf67c3d145c659ab36aaf318dc0fec77b20ddf7cbfaec9580e89a99995",
            "states": "f78f5b877347ed2f39da722609f8b4afb6daed622d37a772e904034eb1e27d60",
            "candidates": "d4b3077a428a2239a2eaad720688297cb41abe399f04663321fb1b4e16cceeab",
        }

    def test_fits_are_frozen_across_structures(self, air_passengers):
        # One SHA-256 over every fit, frozen before the structures were
        # fitted in lockstep: the winner's repr, end states, candidates and
        # mean, or the error a fit raised.
        y = air_passengers["AirPassengers"].values
        rng = np.random.default_rng(2002)
        cases = [(y, 12), (y[:132], 12), (y[:40], 12)]
        for n in (10, 24, 40, 75, 150):
            walk = 100.0 + np.cumsum(rng.normal(0.0, 1.0, n))
            cases += [(walk, 1), (walk, 12)]
        # ~1e153 overflows the SSE of some structures, ~1e160 of all
        mixed = 10.0**153.375 * np.cumsum(np.random.default_rng(7).normal(0.0, 1.0, 40))
        cases += [(mixed, 1), (mixed, 4), (1e160 * (1.0 + rng.random(40)), 1)]
        cases += [(np.full(30, 7.0), 12), (np.arange(10.0) ** 2, 4), (np.arange(9.0), 1)]
        parts = []
        for series, m in cases:
            try:
                fit = ets_fit(series, m)
            except InsufficientDataError as exc:
                parts.append(f"{type(exc).__name__}: {exc}".encode())
                continue
            labels = "|".join(label for label, _ in fit.candidates).encode()
            parts += [repr(fit.params).encode(), [fit.final_level, fit.final_slope],
                      fit.final_seasonal, labels, [aicc for _, aicc in fit.candidates],
                      fit.forecast_mean(12)]
        assert sha256_of(*parts) == (
            "d2aabf0495d22cbe3c3851d8cdbdda9488bfc9006dfb85adbbfb83db4963f471"
        )

    def test_lockstep_call_budget(self, air_passengers, monkeypatch):
        # one _smooth call runs every structure's grid, one each descent
        # pass of the structures still moving, one the winner's end states
        calls = []

        def counting(*args):
            calls.append(args)
            return _smooth(*args)

        monkeypatch.setattr("agentcast.models.ets._smooth", counting)
        ets_fit(air_passengers["AirPassengers"].values, 12)
        assert len(calls) <= 15

    def test_one_decomposition_per_fit(self, air_passengers, monkeypatch):
        # every seasonal structure starts from the same seasonal pattern
        calls = []

        def counting(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr("agentcast.models.ets.decompose", counting)
        ets_fit(air_passengers["AirPassengers"].values, 12)
        assert len(calls) == 1

    def test_programming_error_is_not_a_fallback(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(TypeError):
            TypeErrorForecaster().forecast(panel, 2)


class TestAutoARIMA:
    def test_white_noise_beats_plain_mean_model(self):
        rng = np.random.default_rng(0)
        y = rng.normal(5.0, 2.0, 300)
        fit = arima_fit(y, 1)
        table = dict(fit.candidates)
        assert fit.order.d == 0
        assert fit.order.aicc <= table["ARIMA(0,0,0)"]
        mean, _ = forecast_arima(fit, 20, None)
        se = y.std(ddof=1) / np.sqrt(len(y))
        assert abs(mean[-1] - y.mean()) <= 3.0 * se

    def test_random_walk_gets_one_difference_monte_carlo(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = np.cumsum(rng.normal(0.0, 1.0, 300))
            d, _ = differencing_orders(y, 1)
            if d == 1:
                hits += 1
        assert hits >= 90

    def test_constant_series(self):
        fit = arima_fit(np.full(30, 7.0), 1)
        mean, _ = forecast_arima(fit, 3, None)
        np.testing.assert_allclose(mean, [7.0, 7.0, 7.0])

    def test_winner_has_lowest_aicc(self):
        rng = np.random.default_rng(7)
        y = np.cumsum(rng.normal(0.2, 1.0, 120))
        fit = arima_fit(y, 1)
        assert fit.order.aicc <= min(a for _, a in fit.candidates) + 1e-9

    def test_seasonal_difference_on_airpassengers(self, air_passengers):
        y = air_passengers["AirPassengers"].values
        d, D = differencing_orders(y, 12)
        assert D == 1

    def test_variance_grows_with_horizon(self, air_passengers):
        entry = one(get_model("autoarima").forecast(air_passengers, 12))
        width = entry.quantiles[:, -1] - entry.quantiles[:, 0]
        assert width[-1] > width[0]

    def test_short_series_falls_back_to_naive(self):
        panel = make_panel({"s": list(np.arange(10.0))})
        entry = one(get_model("autoarima").forecast(panel, 2))
        assert entry.fallback
        np.testing.assert_allclose(entry.mean, [9.0, 9.0])

    def test_bytes_are_frozen(self, air_passengers):
        # SHA-256 of the float64 bytes; kernel changes keep them.  Re-frozen
        # when the CSS fit moved from Nelder-Mead to Levenberg-Marquardt with
        # neighbours fitted from both the warm start and zeros: same orders,
        # winning AICc within 2e-6; drift, a start-set winner with no
        # coefficients, kept all but its candidate table's digest.  Re-frozen
        # when the Jacobian became analytic: same orders, AirPassengers' AICc
        # moved by 4e-10 and white noise's not at all, drift kept its bytes.
        # AirPassengers covers the seasonal difference and the P/Q
        # polynomials, white noise the intercept, the drift series d=1.
        white = np.random.default_rng(0).normal(5.0, 2.0, 300)
        drift = np.cumsum(np.random.default_rng(7).normal(0.2, 1.0, 120))
        cases = {
            "airpassengers": (air_passengers["AirPassengers"].values, 12, 12),
            "white_noise": (white, 1, 20),
            "drift": (drift, 1, 12),
        }
        digests = {}
        for name, (y, m, h) in cases.items():
            fit = arima_fit(y, m)
            mean, quantiles = forecast_arima(fit, h, DEFAULT_LEVELS)
            labels = "|".join(label for label, _ in fit.candidates).encode()
            digests[name] = (
                fit.order.label,
                sha256_of(mean),
                sha256_of(quantiles),
                sha256_of(fit.residuals),
                sha256_of(labels, [aicc for _, aicc in fit.candidates]),
            )
        assert digests == {
            "airpassengers": (
                "ARIMA(3,1,1)(1,1,0)[12]",
                "5dbbb63277732bcf43f02977539dd2aaaec0c39550dedd393b35a4c113389a5f",
                "b645d85e6148ba4c16bb965822c7891a23a93334db5a7fab0d0c587941bb3a3b",
                "b97db0493c46f65b232401932d7f295d3e7cd7ad1b301f53f0b0e0bdc3589081",
                "6d2beb8e9412ded6d45723e874c234982e42da59041a3744151ee2c66d35efbd",
            ),
            "white_noise": (
                "ARIMA(3,0,0)",
                "9be8b44cdfa52cef6045212b099e1226a43161a2edadfc92acca8e418857ea84",
                "b5b6c4f5c8cd14912caf32a0657ad86f86835134c4ae5831e22aeeced80f5234",
                "8789bab59b216da5b8d33979f2f24b60db5d4f19c6173296c1e40b1bd4675b4a",
                "46b6f028f706e19014148896644a2dd0c78ab9861fc74e5c45527b8014adf11e",
            ),
            "drift": (
                "ARIMA(0,1,0)",
                "11b1451e20ebf3e7e020d172fabe647fd93b9dd75fa2c4ec23345cbaa373f684",
                "935e0a5539c9170525c3ff7414ddcb93e235cbfecf579b2ca1c2a0645e700b2e",
                "40f59be6e3f85a8337bf24334c806c97e57399e12d00ceb0c6ecb6005681acd8",
                "c66939a8f4e65fde76f150ebc798a8e07ebf4382ebb233909adf7546bea399fe",
            ),
        }

    def test_warm_start_search(self, air_passengers, monkeypatch):
        # Residual passes, Jacobian passes and Levenberg-Marquardt runs,
        # counted through _levenberg_marquardt.  The budgets are the measured
        # counts (468 and 657 residual, 338 and 441 Jacobian passes) plus at
        # most 30%; the forward-difference Jacobian took 1,635 and 2,612
        # residual passes.
        calls, jacobians, runs = [0], [0], [0]
        levenberg_marquardt = arima._levenberg_marquardt

        def counting(residuals, x0):
            def counted(x):
                calls[0] += 1
                f, jacobian = residuals(x)

                def counted_jacobian():
                    jacobians[0] += 1
                    return jacobian()
                return f, counted_jacobian
            runs[0] += 1
            return levenberg_marquardt(counted, x0)

        monkeypatch.setattr(arima, "_levenberg_marquardt", counting)
        y = air_passengers["AirPassengers"].values
        white = np.random.default_rng(0).normal(5.0, 2.0, 300)
        cases = [(y[:132], 12, (610, 440)), (y, 12, (860, 575)), (white, 1, None)]
        for series, m, budget in cases:
            calls[0] = jacobians[0] = runs[0] = 0
            fit = arima_fit(series, m)
            if budget is not None:
                assert calls[0] <= budget[0] and jacobians[0] <= budget[1]
            assert fit.order.aicc == min(a for _, a in fit.candidates)
            assert _roots_outside(fit.ar_poly) and _roots_outside(fit.ma_poly)
            # one run per start-set order, two per neighbour: from the warm
            # start and from zeros
            assert runs[0] == 4 + 2 * (len(fit.candidates) - 4)
            # the start set fits cold, byte for byte (white noise: the intercept)
            seasonal = m > 1
            use_intercept = fit.order.d + fit.order.D == 0
            start = [(2, 2, 1, 1), (0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
            for (p, q, P, Q), (_, aicc) in zip(start, fit.candidates):
                cold = _fit_candidate(fit.w, p, q, P * seasonal, Q * seasonal, m, use_intercept)
                expected = np.inf if cold is None else cold["aicc"]
                assert np.float64(aicc).tobytes() == np.float64(expected).tobytes()

    def test_warm_start_never_loses_to_a_cold_fit(self, air_passengers, monkeypatch):
        # Every neighbour fitted from a warm start keeps an AICc no higher
        # than a fit of the same order from zeros: a warm start alone can
        # settle in a worse local minimum.
        warm = []

        def recording(w, p, q, P, Q, m, use_intercept, start=None):
            fit = _fit_candidate(w, p, q, P, Q, m, use_intercept, start)
            if start is not None:
                warm.append(((w, p, q, P, Q, m, use_intercept), fit))
            return fit

        monkeypatch.setattr(arima, "_fit_candidate", recording)
        y = air_passengers["AirPassengers"].values
        white = np.random.default_rng(0).normal(5.0, 2.0, 300)
        cases = [(y[:132], 12), (y, 12), (white, 1)]
        cases += [(values, 12) for _, values in itertools.islice(bench_agent_series((301,)), 5)]
        for series, m in cases:
            warm.clear()
            arima_fit(series, m)
            assert warm
            for args, fit in warm:
                cold = _fit_candidate(*args)
                if cold is not None:
                    assert fit is not None and fit["aicc"] <= cold["aicc"]
                if fit is not None:  # the kept fit's polynomials are its own
                    params = np.r_[fit["ar"], fit["ma"], fit["sar"], fit["sma"]]
                    polys = _lag_polys(*args[1:6])(params)
                    assert [poly.tobytes() for poly in polys] == [
                        fit["ar_poly"].tobytes(), fit["ma_poly"].tobytes()
                    ]

    def test_fit_bytes_repeat_within_a_process(self):
        # These series' near-cancelling AR and MA terms give ill-conditioned
        # Jacobians, on which scipy's MINPACK stepped differently from call
        # to call; the allocations between fits move the heap.
        panel = seeded_month_end_panel()
        for key in ("intermittent_02", "trended_21", "trended_31"):
            digests, allocations = set(), []
            for k in range(6):
                allocations.append(np.ones(37 * k + 1))
                fit = arima_fit(panel[key].values, 12)
                digests.add(sha256_of([aicc for _, aicc in fit.candidates], fit.residuals))
            assert len(digests) == 1, key

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales_fit(self, air_passengers, scale):
        fit = arima_fit(air_passengers["AirPassengers"].values * scale, 12)
        assert _roots_outside(fit.ar_poly) and _roots_outside(fit.ma_poly)
        assert math.isfinite(fit.order.aicc)

    def test_overflowing_warm_start_keeps_the_cold_fit(self):
        # An MA(1) start at 5.0 is not invertible: its residuals grow as 5**t
        # and overflow within 500 points.  The LM loop never sees them, the
        # warm fit is dropped and the cold fit kept.
        w = np.random.default_rng(0).normal(0.0, 1.0, 500)
        start = {"ar": (), "ma": (5.0,), "sar": (), "sma": (), "c": None}
        cold = _fit_candidate(w, 0, 1, 0, 0, 1, False)
        assert _fit_candidate(w, 0, 1, 0, 0, 1, False, start)["aicc"] == cold["aicc"]

    def test_overflowing_scale_falls_back_to_naive(self, air_passengers):
        # every candidate's sum of squares overflows, so no fit is valid
        y = air_passengers["AirPassengers"].values * 1e300
        with pytest.raises(InsufficientDataError):
            arima_fit(y, 12)
        entry = one(get_model("autoarima").forecast(make_panel({"s": list(y)}), 12, None))
        assert entry.fallback
        assert np.all(np.isfinite(entry.mean))


def lag_polynomials(max_degree=26):
    """Lag polynomials as the ARIMA fit builds them: a leading 1.0."""
    return st.lists(finite_values, max_size=max_degree).map(lambda c: np.array([1.0] + c))


@st.composite
def fir_cases(draw):
    """(ar_poly, w) with w longer than, as long as, or shorter than ar_poly."""
    ar_poly = draw(lag_polynomials())
    n = len(ar_poly)
    length = draw(st.one_of(st.integers(n + 1, n + 30), st.just(n), st.integers(1, n)))
    return ar_poly, np.array(draw(st.lists(finite_values, min_size=length, max_size=length)))


class TestARIMAKernel:
    @settings(max_examples=300)
    @given(lag_polynomials(), lag_polynomials())
    def test_convolve_is_polymul(self, a, b):
        # polymul trims leading zeros only, and a lag polynomial starts at 1.0
        assert np.convolve(a, b).tobytes() == np.polymul(a, b).tobytes()

    @settings(max_examples=300)
    @given(fir_cases())
    def test_fir_convolve_is_lfilter(self, case):
        # scipy filters with a == [1.0] as convolve(b, x) cut to len(x).  The
        # argument order matters: numpy swaps operands only when the second
        # is longer, so convolve(w, ar_poly) sums in another order when
        # len(w) == len(ar_poly).
        ar_poly, w = case
        expected = lfilter(ar_poly, [1.0], w)
        assert np.convolve(ar_poly, w)[: len(w)].tobytes() == expected.tobytes()


def central_differences(residuals, x, h=1e-6):
    jac = np.empty((len(residuals(x)[0]), len(x)))
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        jac[:, i] = (residuals(up)[0] - residuals(down)[0]) / (2.0 * h)
    return jac


class TestCSSJacobian:
    @pytest.mark.parametrize("m", [1, 4, 12])
    @pytest.mark.parametrize("use_intercept", [False, True])
    def test_matches_central_differences(self, m, use_intercept):
        rng = np.random.default_rng(m + 10 * use_intercept)
        w = rng.normal(1.0, 1.0, 80)
        for p, q, P, Q in itertools.product(range(4), range(4), (0, 1), (0, 1)):
            k = p + q + P + Q + use_intercept
            # each factor's coefficients sum to under 1 in magnitude, so every
            # lag polynomial is stable and invertible
            x = rng.uniform(-0.3, 0.3, k)
            polys = _lag_polys(p, q, P, Q, m)(x)
            assert all(_roots_outside(poly) for poly in polys)
            residuals = _css_least_squares(w, p, q, P, Q, m, use_intercept, lfilter)
            jac = residuals(x)[1]()
            expected = central_differences(residuals, x)
            assert jac.shape == (len(w) - p - m * P, k)
            scale = np.max(np.abs(expected), initial=1.0)
            assert np.max(np.abs(jac - expected), initial=0.0) <= 1e-6 * scale

    def test_pure_ar_with_intercept_is_exact(self):
        # e_t = w_t - phi_1 w_{t-1} - phi_2 w_{t-2} - phi_3 w_{t-3} - c is
        # linear in the parameters: the Jacobian is minus the lagged series
        # and minus ones, at any point
        w = np.random.default_rng(3).normal(0.0, 1.0, 50)
        residuals = _css_least_squares(w, 3, 0, 0, 0, 1, True, lfilter)
        design = -np.column_stack([w[2:-1], w[1:-2], w[:-3], np.ones(47)])
        x = np.array([0.4, -0.2, 0.1, 1.5])
        f, jacobian = residuals(x)
        assert jacobian().tobytes() == design.tobytes()
        np.testing.assert_allclose(f, residuals(np.zeros(4))[0] + design @ x, rtol=1e-12, atol=1e-12)


class TestDampedStep:
    @pytest.mark.parametrize("damping", [1e-3, 1.0, 1e3])
    def test_svd_step_equals_the_stacked_lstsq_step(self, damping):
        # min |jac dx + f|^2 + damping |norms * dx|^2, solved as the stacked
        # least squares [jac; sqrt(damping) diag(norms)] dx = [-f; 0]
        rng = np.random.default_rng(5)
        w = rng.normal(0.0, 1.0, 80)
        # ARMA(1,1) with phi = -theta + 1e-6: its AR and MA columns nearly match
        residuals = _css_least_squares(w, 1, 1, 0, 0, 1, False, lfilter)
        f, jacobian = residuals(np.array([0.5, -0.5 + 1e-6]))
        cases = [(jacobian(), f)]
        for _ in range(20):
            jac = rng.normal(0.0, 1.0, (60, 5)) * rng.uniform(0.1, 10.0, 5)
            jac[:, 1] = 0.0
            cases.append((jac, rng.normal(0.0, 1.0, 60)))
        for jac, f in cases:
            norms = np.sqrt(np.sum(jac**2, axis=0))
            stacked = np.vstack([jac, np.sqrt(damping) * np.diag(norms)])
            expected = np.linalg.lstsq(stacked, np.r_[-f, np.zeros(len(norms))], rcond=None)[0]
            dx = _damped_steps(jac, f)(damping)
            np.testing.assert_allclose(dx, expected, rtol=1e-9, atol=1e-9 * np.max(np.abs(expected)))


# where Cephes ndtri switches branch: the reflections at exp(-2) and
# 1 - exp(-2), sqrt(-2 log y) = 8 at exp(-32), and the ends and the middle
NDTRI_SWITCHES = (0.0, 0.5, 1.0, _EXPM2, 1.0 - _EXPM2, math.exp(-32))


def ndtri_port_bytes(values):
    return np.array([_ndtri(v) for v in map(float, values)]).tobytes()


def neighbours(x, steps=4):
    """``x`` and the ``steps`` floats on either side of it."""
    out, down, up = [x], x, x
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return out


class TestNdtriPort:
    """The Cephes port equals scipy.special.ndtri byte for byte, so the sign
    of a zero and of a NaN counts too."""

    @pytest.mark.parametrize(
        "values",
        [
            DEFAULT_LEVELS,
            np.arange(1, 1000) / 1000.0,
            [v for x in NDTRI_SWITCHES for v in neighbours(x)],
            np.geomspace(5e-324, math.exp(-32), 1000),  # the x >= 8 branch
            [0.0, -0.0, 1.0, -0.1, 1.1, -np.inf, np.inf, np.nan, -np.nan],
        ],
        ids=["default-levels", "thousandths", "branch-neighbours", "tail", "edges"],
    )
    def test_equals_scipy(self, values):
        assert ndtri_port_bytes(values) == ndtri(np.asarray(values, dtype=float)).tobytes()

    @settings(max_examples=2000)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True))
    def test_equals_scipy_inside_the_unit_interval(self, p):
        assert ndtri_port_bytes([p]) == ndtri(np.array([p])).tobytes()


class TestGaussianQuantiles:
    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_bytes_equal_the_scipy_formula(self, kind):
        mean = np.array([1.0, -2.5, 1e6])
        sigma = np.array([0.0, 0.3, 12.5])
        levels = kind(DEFAULT_LEVELS)
        expected = mean[:, None] + ndtri(np.asarray(levels))[None, :] * sigma[:, None]
        assert gaussian_quantiles(mean, sigma, levels).tobytes() == expected.tobytes()

    def test_cached_z_scores_are_read_only(self):
        mean, sigma = np.zeros(2), np.ones(2)
        before = gaussian_quantiles(mean, sigma, DEFAULT_LEVELS).tobytes()
        z = _z_scores(tuple(DEFAULT_LEVELS))
        assert z is _z_scores(tuple(DEFAULT_LEVELS))
        with pytest.raises(ValueError):
            z[0] = 0.0
        assert gaussian_quantiles(mean, sigma, DEFAULT_LEVELS).tobytes() == before


class TestCroston:
    def test_regular_intermittent_rate(self):
        panel = make_panel({"s": [0.0, 0.0, 3.0, 0.0, 0.0, 3.0, 0.0, 0.0, 3.0]})
        entry = one(get_model("croston").forecast(panel, 2))
        np.testing.assert_allclose(entry.mean, [1.0, 1.0])

    def test_all_zero_series(self):
        for alias in ("croston", "adida"):
            panel = make_panel({"s": [0.0] * 8})
            entry = one(get_model(alias).forecast(panel, 3))
            np.testing.assert_allclose(entry.mean, 0.0)

    def test_dense_series_reduces_to_ses(self):
        y = np.array([4.0, 6.0, 5.0, 7.0, 6.0])
        entry = one(get_model("croston").forecast(make_panel({"s": list(y)}), 3))
        # every interval is 1, so the rate is the size level, bit for bit
        assert entry.mean.tolist() == [ses_fit(y, alpha=0.1).level] * 3

    def test_no_quantiles(self):
        panel = make_panel({"s": [0.0, 2.0, 0.0, 2.0, 0.0, 2.0]})
        for alias in ("croston", "adida"):
            frame = get_model(alias).forecast(panel, 2)
            assert frame.levels is None
            assert one(frame).quantiles is None

    def test_adida_buckets_and_disaggregates(self):
        panel = make_panel({"s": [0.0, 0.0, 6.0, 0.0, 0.0, 6.0]})
        entry = one(get_model("adida").forecast(panel, 2))
        # mean interval 3 -> bucket width 3 -> bucket sums [6, 6]
        np.testing.assert_allclose(entry.mean, [2.0, 2.0])

    def test_adida_keeps_most_recent_data(self):
        # width 2 on 5 points: the leading value is dropped, not the last
        panel = make_panel({"s": [9.0, 0.0, 2.0, 0.0, 2.0]})
        entry = one(get_model("adida").forecast(panel, 2))
        np.testing.assert_allclose(entry.mean, [1.0, 1.0])


def bench_agent_series(seeds):
    """Every series of the benchmark generator's agent panels at ``seeds``,
    as (key, values); bench/gen.py is imported from this checkout, not copied."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for seed in seeds:
        for _, text in gen.agent_panels(seed):
            yield from ((key, series.values) for key, series in parse_panel(text.encode()).items())


class TestModelRuleBytes:
    def test_differencing_and_ets_rules_are_frozen(self, air_passengers):
        # One SHA-256 over differencing_orders, the ETS mean and the ETS
        # simulated quantiles (or the class of the error a call raised) on
        # AirPassengers and the benchmark's agent panels at seeds 111-113.
        cases = [("AirPassengers", air_passengers["AirPassengers"].values)]
        cases += bench_agent_series((111, 112, 113))
        parts = []
        for key, y in cases:
            parts.append(key.encode())
            for call in (
                lambda: repr(differencing_orders(y, 12)).encode(),
                lambda: ets_fit(y, 12).forecast_mean(12).tobytes(),
                lambda: ets_fit(y, 12).simulate_quantiles(12, DEFAULT_LEVELS).tobytes(),
            ):
                try:
                    parts.append(call())
                except Exception as exc:
                    parts.append(type(exc).__name__.encode())
        assert len(cases) > 100
        assert sha256_of(*parts) == (
            "2a51b8e7621bb10afd2f4eddce9c2f47e7a8bf4b5f3dee3c8cae297fce4e5213"
        )


class TestSharedInvariants:
    @pytest.mark.parametrize("alias", list(MODEL_REGISTRY))
    def test_output_shape_and_grid(self, alias):
        values = np.abs(np.sin(np.arange(30))) * 5 + np.linspace(4, 9, 30)
        panel = make_panel({"s": list(values)})
        frame = get_model(alias).forecast(panel, 7)
        entry = one(frame)
        assert entry.mean.shape == (7,)
        start = panel["s"].timestamps[-1]
        assert list(entry.timestamps) == future_grid(start, panel.freq, 7)
        if frame.levels is not None:
            assert entry.quantiles.shape == (7, len(DEFAULT_LEVELS))

    @pytest.mark.parametrize("alias", ADDITIVE_MODELS)
    def test_shift_equivariance(self, alias):
        rng = np.random.default_rng(3)
        base = 50.0 + np.cumsum(rng.normal(0.0, 1.0, 40))
        fa = one(get_model(alias).forecast(make_panel({"s": list(base)}), 6)).mean
        fb = one(get_model(alias).forecast(make_panel({"s": list(base + 100.0)}), 6)).mean
        np.testing.assert_allclose(fb, fa + 100.0, atol=1e-6)

    @pytest.mark.parametrize("alias", ["naive", "seasonalnaive", "historicaverage"])
    def test_positive_scale_equivariance(self, alias):
        rng = np.random.default_rng(5)
        base = 20.0 + rng.normal(0.0, 2.0, 24)
        fa = one(get_model(alias).forecast(make_panel({"s": list(base)}), 6)).mean
        fb = one(get_model(alias).forecast(make_panel({"s": list(base * 3.5)}), 6)).mean
        np.testing.assert_allclose(fb, fa * 3.5, rtol=1e-12)

    @pytest.mark.parametrize("alias", GAUSSIAN_MODELS)
    def test_quantile_symmetry(self, alias):
        rng = np.random.default_rng(11)
        values = 100.0 + np.cumsum(rng.normal(0.5, 2.0, 60))
        panel = make_panel({"s": list(values)})
        frame = get_model(alias).forecast(panel, 5, levels=(0.1, 0.25, 0.5, 0.75, 0.9))
        entry = one(frame)
        low = entry.quantiles[:, [0, 1]]
        high = entry.quantiles[:, [4, 3]]
        expected = np.repeat(2.0 * entry.mean[:, None], 2, axis=1)
        np.testing.assert_allclose(low + high, expected, atol=1e-9)

    def test_multi_series_panel_forecast(self):
        panel = make_panel({"a": [1.0, 2.0, 3.0, 4.0], "b": [10.0, 10.0, 10.0, 10.0]})
        frame = get_model("naive").forecast(panel, 2)
        assert frame.keys() == ["a", "b"]
        np.testing.assert_allclose(frame["b"].mean, [10.0, 10.0])


class InfForecaster(Forecaster):
    """Test double: an auto model whose fit overflows to +inf."""

    name = "inf"
    fallback_to_naive = True

    def _forecast_series(self, y, m, h, levels):
        return np.full(h, np.inf), None


class TestFiniteOutput:
    # Finite input, non-finite output: each reproducer is a 48-point
    # monthly series parsed from CSV.
    OVERFLOW = [1.0] * 47 + [1.7e308]
    HUGE_NOISE = list(np.random.default_rng(0).normal(0.0, 1e200, 48))

    def test_theta_overflow_is_a_failure(self):
        with pytest.raises(NonFiniteForecastError):
            get_model("theta").forecast(parse_monthly(self.OVERFLOW), 12)

    @pytest.mark.parametrize("alias", ["naive", "ses", "theta", "historicaverage"])
    def test_infinite_quantiles_are_a_failure(self, alias):
        with pytest.raises(NonFiniteForecastError):
            get_model(alias).forecast(parse_monthly(self.HUGE_NOISE), 12)

    @pytest.mark.parametrize("alias", ["autoets", "autoarima"])
    def test_non_finite_naive_fallback_is_a_failure(self, alias):
        with pytest.raises(NonFiniteForecastError, match="naive fallback"):
            get_model(alias).forecast(parse_monthly(self.HUGE_NOISE), 12)

    def test_auto_model_falls_back_to_finite_naive(self):
        panel = make_panel({"s": [3.0, 5.0, 4.0, 6.0]})
        entry = one(InfForecaster().forecast(panel, 2, levels=None))
        assert entry.fallback
        np.testing.assert_array_equal(entry.mean, [6.0, 6.0])

    @pytest.mark.parametrize("alias", list(MODEL_REGISTRY))
    def test_finite_output_passes_through_unchanged(self, alias, air_passengers):
        model = get_model(alias)
        frame = model.forecast(air_passengers, 12)
        mean, quantiles = model._forecast_series(
            air_passengers["AirPassengers"].values, 12, 12, frame.levels
        )
        entry = one(frame)
        assert not entry.fallback
        assert entry.mean.tobytes() == mean.tobytes()
        if quantiles is None:
            assert entry.quantiles is None
        else:
            assert entry.quantiles.tobytes() == quantiles.tobytes()
