"""Simple baselines: naive, seasonal naive, historic average, SES.

SES is ETS(A,N,N) on the recursion ``ets._smooth``, level starting at y[0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, SeriesTooShortError
from .base import Forecaster, _naive_block, gaussian_quantiles
from .ets import _smooth


class Naive(Forecaster):
    """Repeat the last observation; variance grows like a random walk."""

    name = "naive"

    def _forecast_block(self, Y, m, h, levels):
        return _naive_block(Y, h, levels)


class SeasonalNaive(Forecaster):
    """Repeat the last full seasonal cycle, wrapping beyond one period."""

    name = "seasonalnaive"

    def _forecast_block(self, Y, m, h, levels):
        n = Y.shape[1]
        if n < m:
            raise SeriesTooShortError(
                f"seasonal naive needs at least m={m} observations, got {n}"
            )
        steps = np.arange(h)
        mean = Y[:, n - m + steps % m]
        if levels is None:
            return mean, None
        sigma_m = (Y[:, m:] - Y[:, :-m]).std(axis=1) if n >= m + 1 else np.zeros(len(Y))
        sigma = sigma_m[:, None] * np.sqrt(np.ceil((steps + 1) / m))
        return mean, gaussian_quantiles(mean, sigma, levels)


class HistoricAverage(Forecaster):
    """Arithmetic mean of the history; flat uncertainty."""

    name = "historicaverage"

    def _forecast_block(self, Y, m, h, levels):
        mean = np.repeat(Y.mean(axis=1)[:, None], h, axis=1)
        if levels is None:
            return mean, None
        sigma = Y.std(axis=1, ddof=1) if Y.shape[1] >= 2 else np.zeros(len(Y))
        return mean, gaussian_quantiles(mean, np.repeat(sigma[:, None], h, axis=1), levels)


@dataclass(frozen=True)
class SESState:
    alpha: float
    level: float
    residual_sd: float

    def sigma(self, h: int) -> np.ndarray:
        """ETS(A,N,N) forecast standard deviations of steps 1..h."""
        return self.residual_sd * np.sqrt(1.0 + np.arange(h) * self.alpha**2)


def ses_fit(y: np.ndarray, alpha: float | None = None) -> SESState:
    """Simple exponential smoothing; level starts at the first observation.

    When ``alpha`` is None it is chosen from the grid 0.01..0.99 by
    in-sample one-step squared error, the grid in one batch run of
    ``ets._smooth``.  ``residual_sd`` is the standard deviation of the
    one-step errors of y[1:] (0 for a single observation).
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

    forecasts = []
    level = _smooth(y[1:], *init, alpha, 0.0, 0.0, 0.0, fitted=forecasts)[1]
    sd = float((y[1:] - np.array(forecasts)).std()) if len(y) > 1 else 0.0
    return SESState(float(alpha), float(level), sd)


class SES(Forecaster):
    """Flat forecast at the smoothed level, ETS(A,N,N) variance growth."""

    name = "ses"

    def _forecast_series(self, y, m, h, levels):
        state = ses_fit(y)
        mean = np.full(h, state.level)
        return mean, None if levels is None else gaussian_quantiles(mean, state.sigma(h), levels)
