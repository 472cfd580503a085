"""Simple baselines: naive, seasonal naive, historic average, SES.

SES is ETS(A,N,N) on the recursion ``ets._smooth``, level starting at y[0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, SeriesTooShortError
from .base import Forecaster, _naive_series, gaussian_quantiles
from .ets import _smooth


class Naive(Forecaster):
    """Repeat the last observation; variance grows like a random walk."""

    name = "naive"

    def _forecast_series(self, y, m, h, levels):
        return _naive_series(y, h, levels)


class SeasonalNaive(Forecaster):
    """Repeat the last full seasonal cycle, wrapping beyond one period."""

    name = "seasonalnaive"

    def _forecast_series(self, y, m, h, levels):
        n = len(y)
        if n < m:
            raise SeriesTooShortError(
                f"seasonal naive needs at least m={m} observations, got {n}"
            )
        steps = np.arange(h)
        mean = y[n - m + steps % m]
        if levels is None:
            return mean, None
        sigma_m = (y[m:] - y[:-m]).std() if n >= m + 1 else 0.0
        sigma = sigma_m * np.sqrt(np.ceil((steps + 1) / m))
        return mean, gaussian_quantiles(mean, sigma, levels)


class HistoricAverage(Forecaster):
    """Arithmetic mean of the history; flat uncertainty."""

    name = "historicaverage"

    def _forecast_series(self, y, m, h, levels):
        mean = np.full(h, y.mean())
        if levels is None:
            return mean, None
        sigma_val = y.std(ddof=1) if len(y) >= 2 else 0.0
        return mean, gaussian_quantiles(mean, np.full(h, sigma_val), levels)


@dataclass(frozen=True)
class SESState:
    alpha: float
    level: float
    residual_sd: float


def ses_fit(y: np.ndarray, alpha: float | None = None) -> tuple[SESState, np.ndarray]:
    """Simple exponential smoothing; level starts at the first observation.

    When ``alpha`` is None it is chosen from the grid 0.01..0.99 by
    in-sample one-step squared error, the grid in one batch run of
    ``ets._smooth``.  Returns the state and the fitted one-step forecasts
    (fitted[t] predicts y[t]; fitted[0] = y[0]).
    """
    if len(y) == 0:
        raise InsufficientDataError("SES needs at least 1 observation")
    init = (float(y[0]), 0.0, [0.0])
    if alpha is None:
        grid = np.arange(1, 100) / 100.0
        sses = _smooth(y[1:], *init, grid, 0.0, 0.0, 0.0)[0]
        alpha = float(grid[int(np.argmin(sses))])
    elif not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")

    _, level, _, _, forecasts = _smooth(y[1:], *init, alpha, 0.0, 0.0, 0.0)
    fitted = np.array([init[0], *forecasts])
    residuals = y[1:] - fitted[1:]
    sd = float(residuals.std()) if len(residuals) else 0.0
    return SESState(float(alpha), float(level), sd), fitted


class SES(Forecaster):
    """Flat forecast at the smoothed level, ETS(A,N,N) variance growth."""

    name = "ses"

    def _forecast_series(self, y, m, h, levels):
        state, _ = ses_fit(y)
        mean = np.full(h, state.level)
        if levels is None:
            return mean, None
        steps = np.arange(1, h + 1)
        sigma = state.residual_sd * np.sqrt(1.0 + (steps - 1) * state.alpha**2)
        return mean, gaussian_quantiles(mean, sigma, levels)
