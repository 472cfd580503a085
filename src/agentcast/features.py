"""Per-series diagnostics on length blocks: decomposition, strength
measures, ACF, KPSS.

These drive the agent's model proposal.  The decomposition is the classical
additive one (centered moving average trend, per-phase seasonal means), so
every feature is exactly reproducible by hand.

Each diagnostic takes an (S, n) block of equal-length series and returns
one value or row per series.  A 1-D series runs as the one-row block and
gets that row's value back, which is how the model fits call them;
``compute_features`` runs blocks of up to ``_BLOCK_CELLS`` cells.  The phase means,
the centring, the variances, the demeaning, the partial sums, the mean,
std and intermittency are reductions along axis 1, equal bit for bit to
numpy's 1-D call on each row.  The rest stays per row: the centred moving
average's ``np.convolve`` and the BLAS ``np.dot`` autocovariances of the
ACF and KPSS, whose summation order a row-wise sum need not reproduce.

A statistic whose arithmetic overflows comes out NaN, without a numpy
warning; ``compute_features`` reports it, like a failed precondition, as
an absent (None) feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientDataError
from .panel import SeriesPanel, _csv_cell, _Keyed

# Centered moving-average window used for the trend when there is no
# seasonal cycle (m = 1); must be odd.
NONSEASONAL_TREND_WINDOW = 13

# 5% critical value of the KPSS level-stationarity statistic.
KPSS_CRITICAL_5PCT = 0.463

# Cells per block in ``compute_features``.  Blocks this small let the
# block temporaries reuse freed heap memory; one 500 x 144 block left
# 2.6 MB more resident after the call (glibc malloc on Linux).
_BLOCK_CELLS = 8192

# Overflow and inf - inf in a diagnostic come out as NaN, which the caller
# reads as "no value".
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True)
class DecompositionResult:
    """Trend, seasonal and remainder, shaped like the decomposed input."""

    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray
    season_length: int


def _block(values) -> np.ndarray:
    return np.atleast_2d(np.asarray(values, dtype=float))


def _per_row(values, result: np.ndarray):
    """``result``, one entry per row of the block ``values``, or for a 1-D
    series its one entry, as a Python scalar where it is one."""
    if np.ndim(values) == 2:
        return result
    return result[0].item() if result.ndim == 1 else result[0]


def _lag_products(E: np.ndarray, lags) -> np.ndarray:
    """(S, len(lags)) sums of each row's lagged products, by BLAS ``np.dot``."""
    n = E.shape[1]
    return np.array([[np.dot(e[lag:], e[: n - lag]) for lag in lags] for e in E])


def _centered_moving_average(Y: np.ndarray, window: int) -> np.ndarray:
    """(S, n) trend estimates, defined on columns ``[window // 2, n -
    window // 2)`` of each row; the other columns are left unset.

    Odd windows are plain centered averages; even windows use the 2 x m
    convention (an extra 2-average to re-center).
    """
    kernel = np.full(window, 1.0 / window)
    half = window // 2
    trend = np.empty(Y.shape)
    for y, row in zip(Y, trend):
        ma = np.convolve(y, kernel, mode="valid")
        if window % 2 == 0:
            ma = np.convolve(ma, np.array([0.5, 0.5]), mode="valid")
        row[half : len(row) - half] = ma
    return trend


def phase_means(values, start: int, m: int) -> np.ndarray:
    """Means of each row at the ``m`` seasonal phases, where column ``i``
    sits at phase ``(start + i) % m``; 0 for a phase the row never
    reaches."""
    X = _block(values)
    means = np.zeros((len(X), m))
    for i in range(min(m, X.shape[1])):
        means[:, (start + i) % m] = X[:, i::m].mean(axis=1)
    return _per_row(values, means)


def decompose(values, m: int) -> DecompositionResult:
    """Classical additive decomposition y = T + S + R of each row.

    Trend edges (where the centered average is undefined) are filled with
    the nearest defined trend value, so T, S and R cover every index and
    T + S + R reconstructs the input exactly.  With m > 1 the seasonal
    indices are the ``phase_means`` of y - T over ``[m // 2, n - m // 2)``,
    where the centered average is defined, centred to sum to zero.
    """
    Y = _block(values)
    n = Y.shape[1]
    if m > 1:
        if n < 2 * m:
            raise InsufficientDataError(
                f"decomposition with season length {m} needs at least {2 * m} "
                f"observations, got {n}"
            )
        window = m
    else:
        if n < 3:
            raise InsufficientDataError(
                f"decomposition needs at least 3 observations, got {n}"
            )
        window = min(NONSEASONAL_TREND_WINDOW, n if n % 2 == 1 else n - 1)

    trend = _centered_moving_average(Y, window)
    start, stop = window // 2, n - window // 2
    trend[:, :start] = trend[:, start : start + 1]
    trend[:, stop:] = trend[:, stop - 1 : stop]

    with np.errstate(**_QUIET):
        if m > 1:
            indices = phase_means(Y[:, start:stop] - trend[:, start:stop], start, m)
            indices -= indices.mean(axis=1, keepdims=True)  # one full period sums to zero
            seasonal = indices[:, np.arange(n) % m]
        else:
            seasonal = np.zeros(Y.shape)
        remainder = Y - trend
        remainder -= seasonal
    return DecompositionResult(
        *(_per_row(values, part) for part in (trend, seasonal, remainder)), m
    )


def _strength(component: np.ndarray, remainder: np.ndarray):
    R = _block(remainder)
    with np.errstate(**_QUIET):
        denom = np.var(_block(component) + R, axis=1)
        spread = np.var(R, axis=1)
        strength = np.maximum(0.0, 1.0 - spread / denom)
    strength[denom == 0.0] = 0.0
    strength[~(np.isfinite(denom) & np.isfinite(spread))] = np.nan
    return _per_row(remainder, strength)


def trend_strength(d: DecompositionResult):
    """max(0, 1 - Var(R) / Var(T + R)) per row; 0 for degenerate variance,
    NaN where a variance overflows."""
    return _strength(d.trend, d.remainder)


def seasonal_strength(d: DecompositionResult):
    """max(0, 1 - Var(R) / Var(S + R)) per row; identically 0 when m = 1,
    NaN where a variance overflows."""
    if d.season_length == 1:
        return _per_row(d.remainder, np.zeros(len(_block(d.remainder))))
    return _strength(d.seasonal, d.remainder)


def acf(values, lag: int):
    """Lag-``lag`` autocorrelation of each row; 0 for a constant row."""
    Y = _block(values)
    n = Y.shape[1]
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if n <= lag:
        raise InsufficientDataError(
            f"autocorrelation at lag {lag} needs more than {lag} observations, got {n}"
        )
    with np.errstate(**_QUIET):
        denom, cov = _lag_products(Y - Y.mean(axis=1, keepdims=True), (0, lag)).T
        r = cov / denom
    r[denom == 0.0] = 0.0
    return _per_row(values, r)


def kpss_statistic(values):
    """KPSS level-stationarity statistic and the 5% decision of each row.

    eta = n^-2 sum_t S_t^2 / lrv where S_t are partial sums of the demeaned
    series and lrv is the Bartlett-kernel long-run variance at bandwidth
    floor(4 (n/100)^(1/4)).  A constant row gives (0, True); a row whose
    arithmetic overflows gives (NaN, False).
    """
    Y = _block(values)
    n = Y.shape[1]
    if n < 10:
        raise InsufficientDataError(
            f"KPSS needs at least 10 observations, got {n}"
        )
    bandwidth = int(np.floor(4.0 * (n / 100.0) ** 0.25))
    with np.errstate(**_QUIET):
        E = Y - Y.mean(axis=1, keepdims=True)
        numerator = np.sum(np.cumsum(E, axis=1) ** 2, axis=1) / n**2
        gamma = _lag_products(E, range(bandwidth + 1)) / n
        gamma[:, 1:] *= 2.0 * (1.0 - np.arange(1, bandwidth + 1) / (bandwidth + 1.0))
        lrv = np.cumsum(gamma, axis=1)[:, -1]  # the weighted lags added in lag order
        stat = numerator / lrv
    stat[lrv <= 0.0] = 0.0
    return _per_row(values, stat), _per_row(values, stat < KPSS_CRITICAL_5PCT)


@dataclass(frozen=True)
class FeatureRow:
    """Diagnostics of one series; None marks a feature whose precondition
    failed or whose arithmetic overflowed."""

    key: str
    n: int
    season_length: int
    trend_strength: float | None
    seasonal_strength: float | None
    acf1: float | None
    kpss_stat: float | None
    kpss_level_stationary: bool | None
    intermittency: float
    mean: float | None
    coefficient_of_variation: float | None


class FeatureReport(_Keyed):
    """One FeatureRow per series, keyed like the panel."""

    def to_csv(self) -> str:
        names = [f.name for f in fields(FeatureRow)]
        rows = (",".join(_csv_cell(getattr(row, name)) for name in names)
                for row in self._entries.values())
        return "\n".join([",".join(names), *rows]) + "\n"


def _cells(values: np.ndarray) -> list[float | None]:
    """Python floats, None where not finite."""
    return [v if math.isfinite(v) else None for v in values.tolist()]


def _block_columns(Y: np.ndarray, m: int) -> list[list]:
    """The FeatureRow columns after (key, n, season_length) of one block."""
    nan = np.full(len(Y), np.nan)
    t_strength = s_strength = acf1 = kpss_stat = nan
    kpss_stationary = np.zeros(len(Y), dtype=bool)
    try:
        d = decompose(Y, m)
        t_strength, s_strength = trend_strength(d), seasonal_strength(d)
    except InsufficientDataError:
        pass
    try:
        acf1 = acf(Y, 1)
    except InsufficientDataError:
        pass
    try:
        kpss_stat, kpss_stationary = kpss_statistic(Y)
    except InsufficientDataError:
        pass
    with np.errstate(**_QUIET):
        mean = Y.mean(axis=1)
        cv = Y.std(axis=1) / np.abs(mean)
    cv[mean == 0.0] = np.nan
    intermittency = (Y == 0.0).mean(axis=1)
    kpss_cells = _cells(kpss_stat)
    return [_cells(t_strength), _cells(s_strength), _cells(acf1), kpss_cells,
            [s if v is not None else None for s, v in zip(kpss_stationary.tolist(), kpss_cells)],
            intermittency.tolist(), _cells(mean), _cells(cv)]


def compute_features(panel: SeriesPanel) -> FeatureReport:
    """Assemble all diagnostics, on blocks of equal-length series of at
    most ``_BLOCK_CELLS`` cells (one row at least); sub-features failing
    preconditions are absent."""
    m = panel.season_length
    groups = {}
    for key, s in panel.items():
        groups.setdefault(len(s), []).append(key)
    rows = {}
    for n, group in groups.items():
        size = max(1, _BLOCK_CELLS // n)
        for keys in (group[i : i + size] for i in range(0, len(group), size)):
            columns = _block_columns(np.array([panel[key].values for key in keys]), m)
            for key, cells in zip(keys, zip(*columns)):
                rows[key] = FeatureRow(key, n, m, *cells)
    return FeatureReport(rows)
