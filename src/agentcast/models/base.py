"""Forecaster contract shared by every model.

A forecaster is a pure function of (series, config): ``_forecast_series``
maps one value array to ``h`` point forecasts plus an optional quantile
matrix, and the panel driver attaches future timestamps and applies the
naive-fallback policy for the auto models.  A non-finite mean or quantile
counts as a forecasting failure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import ndtri

from ..errors import _FORECAST_FAILURES, InsufficientDataError
from ..panel import (
    DEFAULT_LEVELS,
    ForecastEntry,
    ForecastFrame,
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


class Forecaster:
    """Base class: subclasses set ``name`` and implement ``_forecast_series``."""

    name = "forecaster"
    supports_quantiles = True
    # auto models degrade to naive on failure instead of aborting a batch
    fallback_to_naive = False

    def _forecast_series(
        self, y: np.ndarray, m: int, h: int, levels: tuple[float, ...] | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        raise NotImplementedError

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
        if not self.supports_quantiles:
            levels = None
        m = panel.season_length
        entries = {}
        for key, s in panel.items():
            if len(s) < 1:
                raise InsufficientDataError(f"series {key!r} is empty")
            fallback = False
            try:
                mean, quantiles = self._forecast_series(s.values, m, h, levels)
                _check_finite(mean, quantiles, self.name, key)
            except _FORECAST_FAILURES:
                if not self.fallback_to_naive:
                    raise
                mean, quantiles = _naive_series(s.values, h, levels)
                _check_finite(mean, quantiles, f"{self.name} naive fallback", key)
                fallback = True
            timestamps = tuple(future_grid(s.timestamps[-1], panel.freq, h))
            entries[key] = ForecastEntry(timestamps, mean, quantiles, fallback)
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
