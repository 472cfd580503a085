"""Per-series diagnostics: decomposition, strength measures, ACF, KPSS.

These drive the agent's model proposal.  The decomposition is the classical
additive one (centered moving average trend, per-phase seasonal means), so
every feature is exactly reproducible by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError
from .panel import SeriesPanel

# Centered moving-average window used for the trend when there is no
# seasonal cycle (m = 1); must be odd.
NONSEASONAL_TREND_WINDOW = 13

# 5% critical value of the KPSS level-stationarity statistic.
KPSS_CRITICAL_5PCT = 0.463


@dataclass(frozen=True)
class DecompositionResult:
    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray
    season_length: int


def _centered_moving_average(y: np.ndarray, window: int) -> tuple[np.ndarray, int]:
    """Trend estimate and the index where it becomes defined.

    Odd windows are plain centered averages; even windows use the 2 x m
    convention (an extra 2-average to re-center).
    """
    kernel = np.full(window, 1.0 / window)
    ma = np.convolve(y, kernel, mode="valid")
    if window % 2 == 0:
        ma = np.convolve(ma, np.array([0.5, 0.5]), mode="valid")
        start = window // 2
    else:
        start = (window - 1) // 2
    return ma, start


def phase_means(x: np.ndarray, start: int, m: int) -> np.ndarray:
    """Mean of ``x`` at each of the ``m`` seasonal phases, where ``x[i]``
    sits at phase ``(start + i) % m``; 0 for a phase ``x`` never reaches."""
    phases = np.arange(start, start + len(x)) % m
    means = np.zeros(m)
    for phase in range(m):
        hits = x[phases == phase]
        if hits.size:
            means[phase] = hits.mean()
    return means


def decompose(values: Sequence[float], m: int) -> DecompositionResult:
    """Classical additive decomposition y = T + S + R.

    Trend edges (where the centered average is undefined) are filled with
    the nearest defined trend value, so T, S and R cover every index and
    T + S + R reconstructs the input exactly.  With m > 1 the seasonal
    indices are the ``phase_means`` of y - T over ``[m // 2, n - m // 2)``,
    where the centered average is defined, centred to sum to zero.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
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

    interior, start = _centered_moving_average(y, window)
    trend = np.empty(n)
    trend[start : start + len(interior)] = interior
    trend[:start] = interior[0]
    trend[start + len(interior) :] = interior[-1]

    if m > 1:
        indices = phase_means(y[start : start + len(interior)] - interior, start, m)
        indices -= indices.mean()  # one full period sums to zero
        seasonal = indices[np.arange(n) % m]
    else:
        seasonal = np.zeros(n)

    remainder = y - trend - seasonal
    return DecompositionResult(trend, seasonal, remainder, m)


def _strength(component: np.ndarray, remainder: np.ndarray) -> float:
    denom = np.var(component + remainder)
    if denom == 0.0:
        return 0.0
    return max(0.0, 1.0 - np.var(remainder) / denom)


def trend_strength(d: DecompositionResult) -> float:
    """max(0, 1 - Var(R) / Var(T + R)); 0 for degenerate variance."""
    return _strength(d.trend, d.remainder)


def seasonal_strength(d: DecompositionResult) -> float:
    """max(0, 1 - Var(R) / Var(S + R)); identically 0 when m = 1."""
    if d.season_length == 1:
        return 0.0
    return _strength(d.seasonal, d.remainder)


def acf(values: Sequence[float], lag: int) -> float:
    """Lag-``lag`` autocorrelation; 0 for constant series."""
    y = np.asarray(values, dtype=float)
    n = len(y)
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if n <= lag:
        raise InsufficientDataError(
            f"autocorrelation at lag {lag} needs more than {lag} observations, got {n}"
        )
    d = y - y.mean()
    denom = np.dot(d, d)
    if denom == 0.0:
        return 0.0
    return float(np.dot(d[lag:], d[:-lag]) / denom)


def kpss_statistic(values: Sequence[float]) -> tuple[float, bool]:
    """KPSS level-stationarity statistic and the 5% decision.

    eta = n^-2 sum_t S_t^2 / lrv where S_t are partial sums of the demeaned
    series and lrv is the Bartlett-kernel long-run variance at bandwidth
    floor(4 (n/100)^(1/4)).  Returns (0, True) for a constant series.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 10:
        raise InsufficientDataError(
            f"KPSS needs at least 10 observations, got {n}"
        )
    e = y - y.mean()
    partial = np.cumsum(e)
    numerator = np.sum(partial**2) / n**2

    bandwidth = int(np.floor(4.0 * (n / 100.0) ** 0.25))
    lrv = np.dot(e, e) / n
    for j in range(1, bandwidth + 1):
        gamma = np.dot(e[j:], e[:-j]) / n
        lrv += 2.0 * (1.0 - j / (bandwidth + 1.0)) * gamma
    if lrv <= 0.0:
        return 0.0, True
    stat = float(numerator / lrv)
    return stat, stat < KPSS_CRITICAL_5PCT


@dataclass(frozen=True)
class FeatureRow:
    """Diagnostics of one series; None marks a feature whose precondition failed."""

    key: str
    n: int
    season_length: int
    trend_strength: float | None
    seasonal_strength: float | None
    acf1: float | None
    kpss_stat: float | None
    kpss_level_stationary: bool | None
    intermittency: float
    mean: float
    coefficient_of_variation: float | None


class FeatureReport:
    """One FeatureRow per series, keyed like the panel."""

    def __init__(self, rows: dict[str, FeatureRow]):
        self._rows = {key: rows[key] for key in sorted(rows)}

    def keys(self) -> list[str]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, key: str) -> FeatureRow:
        return self._rows[key]

    def items(self):
        return iter(self._rows.items())

    def to_csv(self) -> str:
        names = [f.name for f in fields(FeatureRow)]
        lines = [",".join(names)]
        for row in self._rows.values():
            cells = []
            for name in names:
                v = getattr(row, name)
                if v is None:
                    cells.append("")
                elif isinstance(v, bool):
                    cells.append(str(v).lower())
                elif isinstance(v, float):
                    cells.append(f"{v:.12g}")
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def compute_features(panel: SeriesPanel) -> FeatureReport:
    """Assemble all diagnostics; sub-features failing preconditions are absent."""
    m = panel.season_length
    rows = {}
    for key, s in panel.items():
        y = s.values
        n = len(y)
        t_strength = s_strength = None
        try:
            d = decompose(y, m)
            t_strength = trend_strength(d)
            s_strength = seasonal_strength(d)
        except InsufficientDataError:
            pass
        try:
            acf1 = acf(y, 1)
        except InsufficientDataError:
            acf1 = None
        try:
            kpss_stat, kpss_stationary = kpss_statistic(y)
        except InsufficientDataError:
            kpss_stat = kpss_stationary = None
        mean = float(y.mean())
        sd = float(y.std())
        cv = sd / abs(mean) if mean != 0.0 else None
        rows[key] = FeatureRow(
            key=key,
            n=n,
            season_length=m,
            trend_strength=t_strength,
            seasonal_strength=s_strength,
            acf1=acf1,
            kpss_stat=kpss_stat,
            kpss_level_stationary=kpss_stationary,
            intermittency=float(np.mean(y == 0.0)),
            mean=mean,
            coefficient_of_variation=cv,
        )
    return FeatureReport(rows)
