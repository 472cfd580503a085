"""Forecaster contract shared by every model kind.

Each forecaster has one per-series step, ``_forecast_values``, giving the
``h`` point forecasts, the h x L quantile matrix (None when quantile-free
or no levels were requested) and whether the naive fallback was used.
The builtin step runs ``_forecast_series`` on the values, counts a
non-finite mean or quantile as a forecasting failure and applies the auto
models' naive fallback; adapter and ensemble forecasters override only
the step.  Array models implement ``_forecast_block`` instead: (S, n)
equal-length series in, (S, h) means and (S, h, L) quantiles out, its one
row being ``_forecast_series``.  The panel step, ``_forecast_panel``, that
``forecast`` and CV folds run, takes a block per length and reruns each
failed or non-finite row per series; ``forecast`` raises the first failure
in panel order.  Its frame has no levels when a step returned no quantiles.

The Gaussian z-scores come from ``_ndtri``, a port of Cephes ``ndtri``
(Moshier, *Methods and Programs for Mathematical Functions*, 1989), the
rational approximations behind scipy's ``ndtri``; it gives scipy's bits
without importing scipy.  ``gaussian_quantiles`` caches the read-only z
array of each level tuple.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

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


# Cephes ndtri tables, highest power first.  Cephes leaves the leading 1
# of the Q tables implicit (p1evl); it is written out here, and 1.0 * x
# is exact, so one Horner loop gives p1evl's bits.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule in Cephes ``polevl`` order, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Standard normal quantile of ``y0``: -inf at 0, inf at 1, nan outside
    [0, 1]; a NaN goes through the arithmetic, as in Cephes, and comes out
    with its sign flipped."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    y, negate = y0, True
    if y > 1.0 - _EXPM2:
        y, negate = 1.0 - y, False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@functools.lru_cache(maxsize=32)
def _z_scores(levels: tuple[float, ...]) -> np.ndarray:
    z = np.array([_ndtri(p) for p in levels], dtype=float)
    z.flags.writeable = False  # shared by every caller of the cache
    return z


def gaussian_quantiles(
    mean: np.ndarray, sigma: np.ndarray, levels: Sequence[float]
) -> np.ndarray:
    """h x L (S x h x L for S x h means) Gaussian quantiles around the means."""
    z = _z_scores(tuple(map(float, levels)))
    return mean[..., None] + z * np.asarray(sigma, dtype=float)[..., None]


SIGMA2_FLOOR = 1e-10


def _aicc(sse: float, n: int, k: int) -> float:
    """Gaussian AICc of ``n`` residuals with sum of squares ``sse`` and
    ``k`` parameters; inf when ``sse`` is not finite or n - k - 1 <= 0."""
    if not np.isfinite(sse) or n - k - 1 <= 0:
        return np.inf
    sigma2 = max(sse / n, SIGMA2_FLOOR)
    loglik = -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)
    return -2.0 * loglik + 2.0 * k + 2.0 * k * (k + 1) / (n - k - 1)


# A step's output is checked for non-finite cells, which are a forecasting
# failure, so its overflow needs no numpy warning.
_CHECKED = dict(over="ignore", invalid="ignore", divide="ignore")


class Forecaster:
    """Base class: builtin models set ``name`` and a series or block step."""

    name = "forecaster"
    # auto models degrade to naive on failure instead of aborting a batch
    fallback_to_naive = False
    # CV overlaps only folds that wait on a remote reply: a local fit holds
    # the GIL, so running it on a worker thread adds switching and no speed
    waits_on_network = False
    _forecast_block = None  # (Y, m, h, levels) -> (mean, quantiles) blocks

    def _forecast_series(
        self, y: np.ndarray, m: int, h: int, levels: tuple[float, ...] | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        if self._forecast_block is None:
            raise NotImplementedError
        return _row(*self._forecast_block(y[None, :], m, h, levels))

    def _forecast_values(
        self, key: str, series: Series, freq: Frequency, h: int, levels: tuple[float, ...] | None
    ) -> tuple[np.ndarray, np.ndarray | None, bool]:
        """(mean, quantiles, fallback) of one series; ``h`` and ``levels`` are valid."""
        try:
            with np.errstate(**_CHECKED):
                mean, quantiles = self._forecast_series(series.values, freq.season_length, h, levels)
            _check_finite(mean, quantiles, self.name, key)
            return mean, quantiles, False
        except _FORECAST_FAILURES:
            if not self.fallback_to_naive:
                raise
        with np.errstate(**_CHECKED):
            mean, quantiles = _row(*_naive_block(series.values[None, :], h, levels))
        _check_finite(mean, quantiles, f"{self.name} naive fallback", key)
        return mean, quantiles, True

    def _forecast_panel(self, keys, series, freq, h, levels):
        """Yield per series, in order, its (mean, quantiles, fallback) or the
        forecasting failure it raised.  An array model runs a block per
        series length; any other row, or one whose block raised or came out
        non-finite, runs the per-series step lazily, when it is reached."""
        done, groups = {}, {}
        for i, s in enumerate(series if self._forecast_block is not None else ()):
            groups.setdefault(len(s), []).append(i)
        for rows in groups.values():
            try:
                with np.errstate(**_CHECKED):
                    mean, quantiles = self._forecast_block(
                        np.array([series[i].values for i in rows]), freq.season_length, h, levels
                    )
            except _FORECAST_FAILURES:
                continue
            for r in np.flatnonzero(_finite_rows(mean, quantiles)):
                done[rows[r]] = (*_row(mean, quantiles, r), False)
        for i, (key, s) in enumerate(zip(keys, series)):
            try:
                yield done[i] if i in done else self._forecast_values(key, s, freq, h, levels)
            except _FORECAST_FAILURES as exc:
                yield exc

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
        keys = panel.keys()
        results = self._forecast_panel(keys, [panel[key] for key in keys], panel.freq, h, levels)
        entries = {}
        for key, result in zip(keys, results):
            if isinstance(result, Exception):
                raise result
            timestamps = tuple(future_grid(panel[key].timestamps[-1], panel.freq, h))
            entries[key] = ForecastEntry(timestamps, *result)
        if any(entry.quantiles is None for entry in entries.values()):
            levels = None
        return ForecastFrame(self.name, entries, levels)


def _naive_block(Y, h, levels):
    """Shared by the Naive model and the auto-model fallback path."""
    mean = np.repeat(Y[:, -1:], h, axis=1)
    if levels is None:
        return mean, None
    sigma_1 = np.diff(Y, axis=1).std(axis=1) if Y.shape[1] >= 2 else np.zeros(len(Y))
    sigma = sigma_1[:, None] * np.sqrt(np.arange(1, h + 1))
    return mean, gaussian_quantiles(mean, sigma, levels)


def _finite_rows(mean, quantiles) -> np.ndarray:
    """Whether each row of (S, h) means and (S, h, L) quantiles is finite."""
    finite = np.isfinite(mean).all(axis=1)
    return finite if quantiles is None else finite & np.isfinite(quantiles).all(axis=(1, 2))


def _row(mean, quantiles, r=0):
    return mean[r], None if quantiles is None else quantiles[r]
