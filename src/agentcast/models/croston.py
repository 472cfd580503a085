"""Intermittent-demand forecasters: classic Croston and ADIDA.

Both emit flat point forecasts and no quantiles.  Classic Croston
smooths nonzero demand sizes and inter-demand intervals separately
(fixed alpha 0.1) and forecasts their ratio.  ADIDA aggregates the
series into buckets sized by the mean inter-demand interval, smooths
the bucket sums and disaggregates uniformly.  Each smoothing is SES
(``ses_fit``: ETS(A,N,N) on the recursion AutoETS uses), its level
starting at the first size, interval or bucket sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .base import Forecaster
from .baselines import SESState, ses_fit

CROSTON_ALPHA = 0.1


@dataclass(frozen=True)
class CrostonState:
    size: SESState | None
    interval: SESState | None
    variant: str
    rate: float


def _demand_points(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero demand sizes and inter-demand intervals.

    The first interval counts from the start of the series (position of
    the first demand, 1-based); later ones are gaps between demands.
    """
    positions = np.flatnonzero(y != 0)
    sizes = y[positions]
    intervals = np.diff(np.concatenate(([-1], positions))).astype(float)
    return sizes, intervals


def croston_fit(y: np.ndarray, variant: str = "classic") -> CrostonState:
    if variant not in ("classic", "adida"):
        raise ValueError(f"unknown croston variant {variant!r}")
    sizes, intervals = _demand_points(y)
    if sizes.size == 0:
        return CrostonState(None, None, variant, 0.0)
    if variant == "classic":
        size_state = ses_fit(sizes, CROSTON_ALPHA)
        interval_state = ses_fit(intervals, CROSTON_ALPHA)
        rate = size_state.level / interval_state.level
        return CrostonState(size_state, interval_state, variant, rate)
    # ADIDA: end-aligned buckets so the most recent data is never dropped
    w = max(1, int(floor(intervals.mean() + 0.5)))
    usable = (len(y) // w) * w
    buckets = y[len(y) - usable :].reshape(-1, w).sum(axis=1)
    bucket_state = ses_fit(buckets, CROSTON_ALPHA)
    return CrostonState(bucket_state, None, variant, bucket_state.level / w)


class Croston(Forecaster):
    name = "croston"
    variant = "classic"

    def _forecast_series(self, y, m, h, levels):
        state = croston_fit(y, self.variant)
        return np.full(h, state.rate), None


class Adida(Croston):
    name = "adida"
    variant = "adida"
