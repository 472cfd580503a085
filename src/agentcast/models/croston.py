"""Intermittent-demand forecasters: classic Croston and ADIDA.

Both emit flat point forecasts and no quantiles.  Classic Croston
smooths nonzero demand sizes and inter-demand intervals separately
(fixed alpha 0.1) and forecasts their ratio.  ADIDA aggregates the
series into buckets sized by the mean inter-demand interval, smooths
the bucket sums and disaggregates uniformly.  Each smoothing is
ETS(A,N,N) on the recursion AutoETS uses, its level starting at the
first size, interval or bucket sum.
"""

from __future__ import annotations

from math import floor

import numpy as np

from .base import Forecaster
from .ets import _smooth

CROSTON_ALPHA = 0.1
SES_STATES = (0.0, [0.0], CROSTON_ALPHA, 0.0, 0.0, 0.0)  # _smooth's arguments after the level


def _smoothed(y: np.ndarray, variant: str) -> tuple[list[np.ndarray], int]:
    """The sequences to smooth, none without demand: demand sizes and the
    intervals before them (the first from the start, 1-based), or ADIDA's
    bucket sums and their width w."""
    positions = np.flatnonzero(y != 0)
    if positions.size == 0:
        return [], 1
    intervals = np.diff(np.concatenate(([-1], positions))).astype(float)
    if variant == "classic":
        return [y[positions], intervals], 1
    # ADIDA: end-aligned buckets so the most recent data is never dropped
    w = max(1, int(floor(intervals.mean() + 0.5)))
    usable = (len(y) // w) * w
    return [y[len(y) - usable :].reshape(-1, w).sum(axis=1)], w


class Croston(Forecaster):
    name = "croston"
    variant = "classic"

    def _forecast_block(self, Y, m, h, levels):
        inputs = [_smoothed(y, self.variant) for y in Y]
        ends = iter(_ses_levels([seq for seqs, _ in inputs for seq in seqs]))
        # a size level over an interval level, or a bucket level over w
        rates = [next(ends) / (next(ends) if len(seqs) == 2 else w) if seqs else 0.0
                 for seqs, w in inputs]
        return np.repeat(np.array(rates)[:, None], h, axis=1), None


def _ses_levels(sequences: list[np.ndarray]) -> list[float]:
    """``ses_fit(seq, CROSTON_ALPHA).level`` of each sequence.  Three or more
    share one ``_smooth`` run, each left-padded with its first value: a padded
    step has error 0 and keeps the level's bits.  Fewer run faster on floats."""
    if len(sequences) <= 2:
        return [_smooth(seq[1:], float(seq[0]), *SES_STATES)[1] for seq in sequences]
    width = max(map(len, sequences))
    padded = np.array([np.concatenate((np.full(width - len(q), q[0]), q)) for q in sequences])
    return _smooth(padded[:, 1:].T, padded[:, 0], *SES_STATES)[1].tolist()


class Adida(Croston):
    name = "adida"
    variant = "adida"
