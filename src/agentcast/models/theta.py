"""Two-theta-lines forecaster.

The theta(0) line is the OLS linear fit of the series on t = 1..n; the
theta(2) line, 2y minus that fit, carries the short-run dynamics and is
forecast by SES (``ses_fit``: ETS(A,N,N) on the recursion AutoETS uses,
level starting at the line's first value).  The point forecast averages
the extrapolated line and the SES level.  Strongly seasonal positive
series are multiplicatively deseasonalized first, by per-phase means of
the ratios to ``decompose``'s trend, and the forecasts (point and
quantiles) re-seasonalized.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientDataError
from ..features import decompose, phase_means, seasonal_strength
from .base import Forecaster, gaussian_quantiles
from .baselines import ses_fit

SEASONAL_STRENGTH_GATE = 0.6


def _seasonal_path(y: np.ndarray, m: int) -> np.ndarray | None:
    """Per-phase means of y over ``decompose``'s trend, normalized to mean 1,
    when the seasonal route applies (positive data and trend, two full
    periods, seasonal strength at the gate), else None."""
    n = len(y)
    if m <= 1 or n < 2 * m or np.any(y <= 0):
        return None
    d = decompose(y, m)
    trend = d.trend[m // 2 : n - m // 2]
    # an overflowed (NaN) strength fails the gate
    if not seasonal_strength(d) >= SEASONAL_STRENGTH_GATE or np.any(trend <= 0):
        return None
    indices = phase_means(y[m // 2 : n - m // 2] / trend, m // 2, m)
    return indices / indices.mean()


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
        state = ses_fit(theta2)

        k = np.arange(1, h + 1, dtype=float)
        mean = 0.5 * (intercept + slope * (n + k)) + 0.5 * state.level
        quantiles = None if levels is None else gaussian_quantiles(mean, state.sigma(h), levels)

        if indices is not None:
            future = indices[(np.arange(n, n + h)) % m]
            mean = mean * future
            if quantiles is not None:
                quantiles = quantiles * future[:, None]
        return mean, quantiles
