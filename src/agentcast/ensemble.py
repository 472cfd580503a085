"""Median combination of forecasts and monotone quantile repair.

The ensemble takes the elementwise median of member forecasts (points
and each quantile cell); members that cannot produce quantiles still
vote on the point forecasts.  Because medians of individually monotone
quantile rows need not stay monotone, rows are re-monotonized with
isotonic regression (pool-adjacent-violators) after combining.  The
array-level steps take one series or a block with a leading series axis;
they serve the frame functions here and ``adapters.EnsembleForecaster``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AlignmentError
from .panel import ForecastEntry, ForecastFrame


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


def _median_values(members):
    """Elementwise median of (mean, quantiles, fallback) triples: the means
    of every member, the quantile cells of the members that have them."""
    means, quantiles, fallbacks = zip(*members)
    with_q = [q for q in quantiles if q is not None]
    combined = np.median(np.stack(with_q), axis=0) if with_q else None
    return np.median(np.stack(means), axis=0), combined, any(fallbacks)


def _monotone_rows(quantiles: np.ndarray) -> np.ndarray:
    """A copy with each decreasing row of levels replaced by its isotonic fit.

    PAVA pools only across a decreasing step and returns any other row
    unchanged, bit for bit, so only rows with such a step are refitted.
    """
    fixed = quantiles.copy()
    rows = fixed.reshape(-1, fixed.shape[-1])  # a view of the fresh copy
    # The same comparison PAVA pools on; NaN compares false in both.
    for i in np.flatnonzero((rows[:, 1:] < rows[:, :-1]).any(axis=1)):
        rows[i] = pava_isotonic(rows[i])
    return fixed


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
    name = f"median_ensemble[{'+'.join(f.model for f in frames)}]"
    entries = {}
    for key in frames[0].keys():
        mean, quantiles, fallback = _median_values(
            [(f[key].mean, f[key].quantiles, f[key].fallback) for f in frames]
        )
        entries[key] = ForecastEntry(frames[0][key].timestamps, mean, quantiles, fallback)
    return ForecastFrame(name, entries, levels)


def monotonize_quantiles(frame: ForecastFrame) -> ForecastFrame:
    """Replace each horizon row of quantiles with its isotonic fit."""
    if frame.levels is None:
        raise ValueError("frame has no quantiles to monotonize")
    entries = {
        key: ForecastEntry(
            entry.timestamps, entry.mean, _monotone_rows(entry.quantiles), entry.fallback
        )
        for key, entry in frame.items()
    }
    return ForecastFrame(frame.model, entries, frame.levels)
