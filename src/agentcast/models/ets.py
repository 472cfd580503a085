"""Additive exponential smoothing with automatic structure selection.

Candidate space is additive error x trend {N, A, Ad} x season {N, A},
seasonal structures only when the series holds two full periods.  Each
candidate's smoothing parameters are fitted by a coarse 0.1 grid over
the admissible region followed by 0.01 coordinate descent, scored by
AICc (Gaussian likelihood of the one-step residuals, k = free
parameters + initial states), lowest wins.  Quantiles come from seeded
simulation of future sample paths with Gaussian innovations.

``_smooth`` is the one additive recursion: the fit, the winner's end
states and SES (so Theta, Croston and ADIDA) as ETS(A,N,N) all run it.
All structures' grids, then all their descent passes, share one call per
pass, each row carrying its own structure's initial states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError
from ..features import decompose
from .base import SIGMA2_FLOOR, Forecaster, _aicc

TRENDS = ("N", "A", "Ad")
SEASONS = ("N", "A")
PHI_BOUNDS = (0.8, 0.98)
ALPHA_BOUNDS = (0.01, 0.99)
N_SIM_PATHS = 1000
SIM_SEED = 12345
MIN_OBS = 10


@dataclass(frozen=True)
class ETSParams:
    """Fitted structure, smoothing weights and initial states."""

    trend: str
    season: str
    alpha: float
    beta: float | None
    gamma: float | None
    phi: float | None
    initial_level: float
    initial_slope: float | None
    initial_seasonal: tuple[float, ...] | None
    sigma: float
    aicc: float

    def __post_init__(self):
        if self.trend not in TRENDS or self.season not in SEASONS:
            raise ValueError(f"unknown structure ({self.trend},{self.season})")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of [0,1]: {self.alpha}")
        if self.beta is not None and not 0.0 <= self.beta <= self.alpha:
            raise ValueError(f"beta must lie in [0, alpha], got {self.beta}")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0 - self.alpha:
            raise ValueError(f"gamma must lie in [0, 1-alpha], got {self.gamma}")
        if self.phi is not None and not PHI_BOUNDS[0] <= self.phi <= PHI_BOUNDS[1]:
            raise ValueError(f"phi out of {PHI_BOUNDS}: {self.phi}")
        if self.initial_seasonal is not None:
            scale = max(1.0, max(abs(s) for s in self.initial_seasonal))
            if abs(sum(self.initial_seasonal)) > 1e-6 * scale:
                raise ValueError("initial seasonal states must sum to 0")


@dataclass(frozen=True)
class ETSFit:
    """Selected model plus everything needed to forecast from it."""

    params: ETSParams
    final_level: float
    final_slope: float
    final_seasonal: np.ndarray
    n_obs: int
    candidates: tuple[tuple[str, float], ...]

    @property
    def _phi(self) -> float:
        """The slope multiplier: 0 without a trend, 1 undamped, else phi."""
        return {"N": 0.0, "A": 1.0, "Ad": self.params.phi}[self.params.trend]

    def forecast_mean(self, h: int) -> np.ndarray:
        p = self.params
        k = np.arange(1, h + 1, dtype=float)
        mean = self.final_level + np.cumsum(self._phi**k) * self.final_slope
        if p.season == "A":
            m = len(self.final_seasonal)
            mean = mean + self.final_seasonal[(self.n_obs + np.arange(h)) % m]
        return mean

    def simulate_quantiles(self, h: int, levels: tuple[float, ...]) -> np.ndarray:
        """Empirical per-step quantiles of N_SIM_PATHS Gaussian sample
        paths drawn from SIM_SEED."""
        p = self.params
        m = len(self.final_seasonal)
        rng = np.random.default_rng(SIM_SEED)
        level = np.full(N_SIM_PATHS, self.final_level)
        slope = np.full(N_SIM_PATHS, self.final_slope)
        seasonal = np.tile(self.final_seasonal, (N_SIM_PATHS, 1))
        alpha = p.alpha
        beta = p.beta or 0.0
        gamma = p.gamma or 0.0
        phi = self._phi
        paths = np.empty((N_SIM_PATHS, h))
        for k in range(h):
            slot = (self.n_obs + k) % m
            point = level + phi * slope + seasonal[:, slot]
            eps = rng.normal(0.0, p.sigma, N_SIM_PATHS)
            paths[:, k] = point + eps
            level = level + phi * slope + alpha * eps
            slope = phi * slope + beta * eps
            seasonal[:, slot] = seasonal[:, slot] + gamma * eps
        return np.quantile(paths, levels, axis=0).T


def _initial_states(y, m, structures):
    """Heuristic (level, slope, seasonal) starting states per (trend, season)
    structure: first-period level, period-mean slope (0 without a trend),
    and one decomposition's seasonal pattern for the seasonal ones."""
    n = len(y)
    seasonal = any(season == "A" for _, season in structures)
    pattern = decompose(y, m).seasonal[:m].tolist() if seasonal else None
    level = float(y[:m].mean()) if m > 1 else float(y[0])
    if m > 1 and n >= 2 * m:
        period_means = y[: (n // m) * m].reshape(-1, m).mean(axis=1)
        slope = float(np.diff(period_means).mean() / m)
    else:
        slope = float(np.diff(y).mean()) if n >= 2 else 0.0
    return [
        (level, 0.0 if trend == "N" else slope, pattern if season == "A" else [0.0] * max(m, 1))
        for trend, season in structures
    ]


def _smooth(y, level, slope, seasonal, alpha, beta, gamma, phi, fitted=None):
    """Additive error-correction recursion of ETS(A,*,*) over ``y``.

    Weights, initial states and ``y[t]`` are floats (one run) or arrays
    (one per row; ``seasonal`` is then a list of per-slot arrays); a row
    equals its scalar run bit for bit, as both do the same IEEE operations
    in order.  ``phi`` multiplies the slope: 0 without a trend, 1 undamped.
    ``y[t]`` meets seasonal slot ``t % len(seasonal)``.
    Returns the SSE (inf if not finite) and the end level, slope and
    seasonal states; each step's one-step forecast is appended to
    ``fitted`` when a list is given.
    """
    seasonal = list(seasonal)
    m = len(seasonal)
    sse = 0.0 * alpha  # zero in the shape of the weights
    with np.errstate(over="ignore", invalid="ignore"):
        for t, obs in enumerate(y.tolist() if y.ndim == 1 else y):
            slot = t % m
            damped = phi * slope
            base = level + damped
            forecast = base + seasonal[slot]
            e = obs - forecast
            sse += e * e
            level = base + alpha * e
            slope = damped + beta * e
            seasonal[slot] = seasonal[slot] + gamma * e
            if fitted is not None:
                fitted.append(forecast)
    return np.where(np.isfinite(sse), sse, np.inf), level, slope, seasonal


def _coarse_grid(trend: str, season: str) -> list[tuple[float, float, float, float]]:
    """(alpha, beta, gamma, phi) rows; undamped phi is 1, or 0 without trend."""
    alphas = [round(0.1 * i, 2) for i in range(1, 10)]
    combos = []
    for a in alphas:
        if trend != "N":
            bs = [round(0.1 * i, 2) for i in range(0, 10) if 0.1 * i <= a + 1e-9]
        else:
            bs = [0.0]
        if season == "A":
            gs = [round(0.1 * i, 2) for i in range(0, 10) if 0.1 * i <= 1.0 - a + 1e-9]
        else:
            gs = [0.0]
        ps = [0.8, 0.9, 0.98] if trend == "Ad" else [1.0 if trend == "A" else 0.0]
        for b in bs:
            for g in gs:
                for p in ps:
                    combos.append((a, b, g, p))
    return combos


def _clamp_combo(trend, season, a, b, g, p):
    a = min(max(a, ALPHA_BOUNDS[0]), ALPHA_BOUNDS[1])
    b = min(max(b, 0.0), a) if trend != "N" else 0.0
    g = min(max(g, 0.0), 1.0 - a) if season == "A" else 0.0
    p = min(max(p, PHI_BOUNDS[0]), PHI_BOUNDS[1]) if trend == "Ad" else p
    return a, b, g, p


def _moves(trend, season, best):
    """Distinct admissible 0.01 steps of each free weight away from ``best``."""
    free = [i for i, on in enumerate((True, trend != "N", season == "A", trend == "Ad")) if on]
    trials = []
    for idx in free:
        for step in (0.01, -0.01):
            trial = list(best)
            trial[idx] = round(trial[idx] + step, 10)
            trial = _clamp_combo(trend, season, *trial)
            if trial != best and trial not in trials:
                trials.append(trial)
    return trials


def _param_count(trend: str, season: str, m: int) -> int:
    smoothing = 1 + (trend != "N") + (season == "A") + (trend == "Ad")
    states = 1 + (trend != "N") + (m if season == "A" else 0)
    return smoothing + states


def ets_fit(y: np.ndarray, m: int) -> ETSFit:
    """Fit every admissible structure and keep the lowest-AICc one."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < MIN_OBS:
        raise InsufficientDataError(
            f"auto ETS needs at least {MIN_OBS} observations, got {n}"
        )
    allow_seasonal = m > 1 and n >= 2 * m
    structures = [(t, s) for t in TRENDS for s in SEASONS if s == "N" or allow_seasonal]
    inits = _initial_states(y, m, structures)
    states = np.array([[level, slope, *s0] for level, slope, s0 in inits])
    # Pass 0 tries each coarse grid, every later pass the steepest-descent
    # moves around each structure's best; a structure stops at its first
    # pass without a gain, or after 500 descent passes.
    trials = [_coarse_grid(t, s) for t, s in structures]
    best = [None] * len(structures)
    best_sse = [np.inf] * len(structures)
    for _ in range(501):
        moving = [i for i, rows in enumerate(trials) if rows]
        if not moving:
            break
        level, slope, *seasonal = states[[i for i in moving for _ in trials[i]]].T
        weights = np.asarray([row for i in moving for row in trials[i]]).T
        sses = _smooth(y, level, slope, seasonal, *weights)[0]
        start = 0
        for i in moving:
            rows = trials[i]
            part = sses[start : start + len(rows)]
            start += len(rows)
            j = int(np.argmin(part))
            if part[j] < best_sse[i] - 1e-12:
                best[i], best_sse[i] = rows[j], float(part[j])
                trials[i] = _moves(*structures[i], rows[j])
            else:
                trials[i] = []
    results, candidates = [], []
    for (trend, season), combo, sse, init in zip(structures, best, best_sse, inits):
        aicc = _aicc(sse, n, _param_count(trend, season, m))
        candidates.append((f"ETS(A,{trend},{season})", aicc))
        if np.isfinite(aicc):
            results.append((aicc, trend, season, combo, init))
    if not results:
        raise InsufficientDataError("no ETS candidate produced a finite likelihood")
    aicc, trend, season, combo, init = min(results, key=lambda r: r[0])
    sse, level, slope, seasonal = _smooth(y, *init, *combo)
    sigma = float(np.sqrt(max(sse / n, SIGMA2_FLOOR)))
    params = ETSParams(
        trend=trend,
        season=season,
        alpha=combo[0],
        beta=combo[1] if trend != "N" else None,
        gamma=combo[2] if season == "A" else None,
        phi=combo[3] if trend == "Ad" else None,
        initial_level=init[0],
        initial_slope=init[1] if trend != "N" else None,
        initial_seasonal=tuple(init[2]) if season == "A" else None,
        sigma=sigma,
        aicc=float(aicc),
    )
    return ETSFit(
        params=params,
        final_level=float(level),
        final_slope=float(slope),
        final_seasonal=np.asarray(seasonal, dtype=float),
        n_obs=n,
        candidates=tuple(candidates),
    )


class AutoETS(Forecaster):
    name = "autoets"
    fallback_to_naive = True

    def _forecast_series(self, y, m, h, levels):
        fit = ets_fit(y, m)
        mean = fit.forecast_mean(h)
        quantiles = fit.simulate_quantiles(h, levels) if levels is not None else None
        return mean, quantiles
