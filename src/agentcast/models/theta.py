"""Two-theta-lines forecaster.

The theta(0) line is the OLS linear fit of the series on t = 1..n; the
theta(2) line, 2y minus that fit, carries the short-run dynamics and is
forecast by SES (``ses_fit``: ETS(A,N,N) on the recursion AutoETS uses,
level starting at the line's first value).  The point forecast averages
the extrapolated line and the SES level.  Strongly seasonal positive
series are multiplicatively deseasonalized first and the forecasts
(point and quantiles) re-seasonalized.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientDataError
from ..features import _centered_moving_average, decompose, seasonal_strength
from .base import Forecaster, gaussian_quantiles
from .baselines import ses_fit

SEASONAL_STRENGTH_GATE = 0.6


def multiplicative_indices(y: np.ndarray, m: int) -> np.ndarray:
    """Per-phase ratio-to-trend indices, normalized to mean 1.

    Phase p is the index position t % m.  Requires a strictly positive
    centered-moving-average trend; callers gate on positive data.
    """
    interior, start = _centered_moving_average(y, m)
    if np.any(interior <= 0):
        raise ValueError("trend must stay positive for multiplicative indices")
    ratios = y[start : start + len(interior)] / interior
    phases = np.arange(start, start + len(interior)) % m
    indices = np.ones(m)
    for phase in range(m):
        hits = ratios[phases == phase]
        if hits.size:
            indices[phase] = hits.mean()
    return indices / indices.mean()


def _seasonal_path(y: np.ndarray, m: int) -> np.ndarray | None:
    """Indices when the seasonal route applies, else None."""
    n = len(y)
    if m <= 1 or n < 2 * m:
        return None
    if np.any(y <= 0):
        return None
    if seasonal_strength(decompose(y, m)) < SEASONAL_STRENGTH_GATE:
        return None
    try:
        return multiplicative_indices(y, m)
    except ValueError:
        return None


class Theta(Forecaster):
    name = "theta"

    def _forecast_series(self, y, m, h, levels):
        n = len(y)
        if n < 4:
            raise InsufficientDataError(
                f"theta needs at least 4 observations, got {n}"
            )
        indices = _seasonal_path(y, m)
        work = y / indices[np.arange(n) % m] if indices is not None else y

        t = np.arange(1, n + 1, dtype=float)
        slope, intercept = np.polyfit(t, work, 1)
        line = intercept + slope * t
        theta2 = 2.0 * work - line
        state, _ = ses_fit(theta2)

        k = np.arange(1, h + 1, dtype=float)
        mean = 0.5 * (intercept + slope * (n + k)) + 0.5 * state.level
        quantiles = None
        if levels is not None:
            sigma = state.residual_sd * np.sqrt(1.0 + (k - 1) * state.alpha**2)
            quantiles = gaussian_quantiles(mean, sigma, levels)

        if indices is not None:
            future = indices[(np.arange(n, n + h)) % m]
            mean = mean * future
            if quantiles is not None:
                quantiles = quantiles * future[:, None]
        return mean, quantiles
