"""Median combination of forecast frames and monotone quantile repair.

The ensemble takes the elementwise median of member forecasts (points
and each quantile cell); members that cannot produce quantiles still
vote on the point forecasts.  Because medians of individually monotone
quantile rows need not stay monotone, rows are re-monotonized with
isotonic regression (pool-adjacent-violators) after combining.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AlignmentError, ConfigError
from .panel import DEFAULT_LEVELS, ForecastEntry, ForecastFrame, SeriesPanel, _check_finite


def pava_isotonic(values: Sequence[float], weights: Sequence[float] | None = None) -> np.ndarray:
    """Weighted least-squares nondecreasing fit by pool-adjacent-violators.

    Adjacent blocks are merged while their weighted means decrease; every
    output value is the weighted mean of its block.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("values must be a non-empty 1-d sequence")
    if weights is None:
        w = np.ones(len(v))
    else:
        w = np.asarray(weights, dtype=float)
    if len(w) != len(v):
        raise ValueError(f"got {len(v)} values but {len(w)} weights")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")

    means: list[float] = []
    sizes: list[int] = []
    wsums: list[float] = []
    for x, wx in zip(v, w):
        means.append(float(x))
        wsums.append(float(wx))
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, s2 = means.pop(), wsums.pop(), sizes.pop()
            m1, w1, s1 = means.pop(), wsums.pop(), sizes.pop()
            wt = w1 + w2
            means.append((m1 * w1 + m2 * w2) / wt)
            wsums.append(wt)
            sizes.append(s1 + s2)
    return np.repeat(means, sizes)


def _check_aligned(frames: Sequence[ForecastFrame]) -> None:
    first = frames[0]
    for frame in frames[1:]:
        if frame.keys() != first.keys():
            raise AlignmentError(
                f"member {frame.model!r} covers series {frame.keys()} "
                f"but {first.model!r} covers {first.keys()}"
            )
        for key in first.keys():
            if frame[key].timestamps != first[key].timestamps:
                raise AlignmentError(
                    f"member {frame.model!r} disagrees on timestamps for "
                    f"series {key!r}"
                )
    with_levels = [f for f in frames if f.levels is not None]
    for frame in with_levels[1:]:
        if frame.levels != with_levels[0].levels:
            raise AlignmentError(
                f"member {frame.model!r} uses levels {frame.levels} but "
                f"{with_levels[0].model!r} uses {with_levels[0].levels}"
            )


def median_ensemble(frames: Sequence[ForecastFrame]) -> ForecastFrame:
    """Elementwise median of the member frames.

    Even member counts take the midpoint of the central pair.  Quantile
    cells are combined over the members that have quantiles.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("median ensemble needs at least one member frame")
    _check_aligned(frames)
    levels = next((f.levels for f in frames if f.levels is not None), None)
    quantile_frames = [f for f in frames if f.levels is not None]
    name = f"median_ensemble[{'+'.join(f.model for f in frames)}]"
    entries = {}
    for key in frames[0].keys():
        mean = np.median(np.stack([f[key].mean for f in frames]), axis=0)
        quantiles = None
        if levels is not None:
            quantiles = np.median(
                np.stack([f[key].quantiles for f in quantile_frames]), axis=0
            )
        fallback = any(f[key].fallback for f in frames)
        entries[key] = ForecastEntry(
            frames[0][key].timestamps, mean, quantiles, fallback
        )
    return ForecastFrame(name, entries, levels)


def monotonize_quantiles(frame: ForecastFrame) -> ForecastFrame:
    """Replace each horizon row of quantiles with its isotonic fit.

    PAVA pools only across a decreasing step and returns any other row
    unchanged, bit for bit, so only rows with such a step are refitted.
    """
    if frame.levels is None:
        raise ValueError("frame has no quantiles to monotonize")
    entries = {}
    for key, entry in frame.items():
        fixed = entry.quantiles.copy()
        # The same comparison PAVA pools on; NaN compares false in both.
        for i in np.flatnonzero((fixed[:, 1:] < fixed[:, :-1]).any(axis=1)):
            fixed[i] = pava_isotonic(fixed[i])
        entries[key] = ForecastEntry(entry.timestamps, entry.mean, fixed, entry.fallback)
    return ForecastFrame(frame.model, entries, frame.levels)


class EnsembleForecaster:
    """Forecaster-shaped wrapper fitting every member then combining.

    Quantile rows are monotonized after the median; requesting levels
    when no member supports them is a config error.  A non-finite
    combined cell (finite members can overflow in the median's midpoint)
    is a forecasting failure, as it is for a single model.
    """

    def __init__(self, members: Sequence):
        members = list(members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = members
        self.name = f"median_ensemble[{'+'.join(m.name for m in members)}]"

    @property
    def supports_quantiles(self) -> bool:
        return any(m.supports_quantiles for m in self.members)

    def forecast(
        self,
        panel: SeriesPanel,
        h: int,
        levels: Sequence[float] | None = DEFAULT_LEVELS,
    ) -> ForecastFrame:
        if levels is not None and not any(m.supports_quantiles for m in self.members):
            raise ConfigError(
                "quantile levels requested but no ensemble member supports quantiles"
            )
        frames = [m.forecast(panel, h, levels) for m in self.members]
        combined = median_ensemble(frames)
        if combined.levels is not None:
            combined = monotonize_quantiles(combined)
        for key, entry in combined.items():
            _check_finite(entry.mean, entry.quantiles, self.name, key)
        return combined
