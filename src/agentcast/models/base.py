"""Forecaster contract shared by every model kind.

Each forecaster has one per-series step, ``_forecast_values``, giving the
``h`` point forecasts, the h x L quantile matrix (None when quantile-free
or no levels were requested) and whether the naive fallback was used.
The builtin step runs ``_forecast_series`` on the values, counts a
non-finite mean or quantile as a forecasting failure and applies the auto
models' naive fallback; adapter and ensemble forecasters override only
the step.  ``forecast`` is the one panel loop: it validates ``h`` and the
levels, runs the step per series and attaches the future timestamps; its
frame has no levels when a step returned no quantiles.  Cross-validation
folds call the step directly on a training prefix, with no frame and no
timestamps; an ensemble's folds combine its members' folds instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import ndtri

from ..errors import _FORECAST_FAILURES
from ..panel import (
    DEFAULT_LEVELS,
    ForecastEntry,
    ForecastFrame,
    Frequency,
    Series,
    SeriesPanel,
    _check_finite,
    future_grid,
    validate_levels,
)


def gaussian_quantiles(
    mean: np.ndarray, sigma: np.ndarray, levels: Sequence[float]
) -> np.ndarray:
    """h x L matrix of Gaussian quantiles around the point forecasts."""
    z = ndtri(np.asarray(levels, dtype=float))
    return mean[:, None] + z[None, :] * np.asarray(sigma, dtype=float)[:, None]


SIGMA2_FLOOR = 1e-10


def _aicc(sse: float, n: int, k: int) -> float:
    """Gaussian AICc of ``n`` residuals with sum of squares ``sse`` and
    ``k`` parameters; inf when ``sse`` is not finite or n - k - 1 <= 0."""
    if not np.isfinite(sse) or n - k - 1 <= 0:
        return np.inf
    sigma2 = max(sse / n, SIGMA2_FLOOR)
    loglik = -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)
    return -2.0 * loglik + 2.0 * k + 2.0 * k * (k + 1) / (n - k - 1)


class Forecaster:
    """Base class: builtin models set ``name`` and implement ``_forecast_series``."""

    name = "forecaster"
    # auto models degrade to naive on failure instead of aborting a batch
    fallback_to_naive = False
    # CV overlaps only folds that wait on a remote reply: a local fit holds
    # the GIL, so running it on a worker thread adds switching and no speed
    waits_on_network = False

    def _forecast_series(
        self, y: np.ndarray, m: int, h: int, levels: tuple[float, ...] | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        raise NotImplementedError

    def _forecast_values(
        self, key: str, series: Series, freq: Frequency, h: int, levels: tuple[float, ...] | None
    ) -> tuple[np.ndarray, np.ndarray | None, bool]:
        """(mean, quantiles, fallback) of one series; ``h`` and ``levels`` are valid."""
        try:
            mean, quantiles = self._forecast_series(series.values, freq.season_length, h, levels)
            _check_finite(mean, quantiles, self.name, key)
            return mean, quantiles, False
        except _FORECAST_FAILURES:
            if not self.fallback_to_naive:
                raise
        mean, quantiles = _naive_series(series.values, h, levels)
        _check_finite(mean, quantiles, f"{self.name} naive fallback", key)
        return mean, quantiles, True

    def forecast(
        self,
        panel: SeriesPanel,
        h: int,
        levels: Sequence[float] | None = DEFAULT_LEVELS,
    ) -> ForecastFrame:
        if h < 1:
            raise ValueError(f"horizon must be >= 1, got {h}")
        if levels is not None:
            levels = validate_levels(levels)
        entries = {}
        for key, s in panel.items():
            mean, quantiles, fallback = self._forecast_values(key, s, panel.freq, h, levels)
            timestamps = tuple(future_grid(s.timestamps[-1], panel.freq, h))
            entries[key] = ForecastEntry(timestamps, mean, quantiles, fallback)
        if any(entry.quantiles is None for entry in entries.values()):
            levels = None
        return ForecastFrame(self.name, entries, levels)


def _naive_series(
    y: np.ndarray, h: int, levels: tuple[float, ...] | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Shared by the Naive model and the auto-model fallback path."""
    mean = np.full(h, y[-1])
    if levels is None:
        return mean, None
    sigma_1 = np.diff(y).std() if len(y) >= 2 else 0.0
    sigma = sigma_1 * np.sqrt(np.arange(1, h + 1))
    return mean, gaussian_quantiles(mean, sigma, levels)
