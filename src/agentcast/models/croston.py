"""Intermittent-demand forecasters: classic Croston and ADIDA.

Both emit flat point forecasts and no quantiles.  Classic Croston
smooths nonzero demand sizes and inter-demand intervals separately
(fixed alpha 0.1) and forecasts their ratio.  ADIDA aggregates the
series into buckets sized by the mean inter-demand interval, smooths
the bucket sums and disaggregates uniformly.  Each smoothing is
ETS(A,N,N) on the recursion AutoETS uses, its level starting at the
first size, interval or bucket sum.

The block step has no per-series loop.  Croston takes every row's demand
sizes and intervals from one ``np.nonzero`` of the block; ADIDA needs
only each row's demand count and last demand, and sums the buckets of
the rows that share a bucket width in one reduction.  All sequences are
then smoothed in one ``_smooth`` run, each left-padded with its own first
value (one or two run on floats).  A row without demand forecasts 0.
"""

from __future__ import annotations

import numpy as np

from .base import Forecaster
from .ets import _smooth

CROSTON_ALPHA = 0.1
SES_STATES = (0.0, [0.0], CROSTON_ALPHA, 0.0, 0.0, 0.0)  # _smooth's arguments after the level


class Croston(Forecaster):
    name = "croston"
    variant = "classic"

    def _forecast_block(self, Y, m, h, levels):
        counts = np.count_nonzero(Y, axis=1)
        rows = np.flatnonzero(counts)  # the rows with a demand
        rates = np.zeros(len(Y))
        if rows.size and self.variant == "classic":
            rates[rows] = _classic_rates(Y, counts[rows])
        elif rows.size:
            rates[rows] = _adida_rates(Y, rows, counts[rows])
        return np.repeat(rates[:, None], h, axis=1), None


def _classic_rates(Y, counts):
    """The size level over the interval level of each row of Y with a
    demand; ``counts`` holds those rows' numbers of demands."""
    cols = np.nonzero(Y)[1]
    starts = np.cumsum(counts) - counts  # each row's first demand in cols
    # the interval before each demand, the first from the start (1-based)
    intervals = np.empty(len(cols))
    np.subtract(cols[1:], cols[:-1], out=intervals[1:])
    intervals[starts] = cols[starts] + 1
    smoothed = _ses_levels(_padded([Y[Y != 0], intervals], counts, starts), np.tile(counts, 2))
    return smoothed[: len(counts)] / smoothed[len(counts) :]


def _padded(sequences, counts, starts):
    """The consecutive runs of each sequence, run r ``counts[r]`` long from
    ``starts[r]``, as the rows of one (len(sequences) * R, W) block, each
    right-aligned and left-padded with its own first value."""
    width = int(counts.max())
    block = np.empty((len(sequences), len(counts), width))
    real = np.arange(width) >= width - counts[:, None]  # a run's cells, row-major
    for part, values in zip(block, sequences):
        part[...] = values[starts, None]
        part[real] = values
    return block.reshape(-1, width)


def _adida_rates(Y, rows, counts):
    """The bucket level over the bucket width w of each of the ``rows`` of
    Y, the rows with a demand, ``counts`` demands each.  The interval mean,
    which rounds to w, is the last demand's 1-based index over the count.
    Buckets are end-aligned, so the most recent data is never dropped; the
    rows of one width share one sum."""
    n = Y.shape[1]
    spans = n - np.argmax(Y[:, ::-1] != 0, axis=1)[rows]
    widths = np.maximum(1, np.floor(spans / counts + 0.5)).astype(int)
    lengths = n // widths
    sums = np.empty((len(rows), int(lengths.max())))
    for w in np.unique(widths).tolist():
        group, k = np.flatnonzero(widths == w), n // w
        pad = sums.shape[1] - k
        sums[group, pad:] = Y[rows[group], n - k * w :].reshape(len(group), k, w).sum(axis=2)
        sums[group, :pad] = sums[group, pad, None]
    return _ses_levels(sums, lengths) / widths


def _ses_levels(padded: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``ses_fit(seq, CROSTON_ALPHA).level`` of each row's last ``lengths``
    values, the rows left-padded with their first value: a padded step has
    error 0 and keeps the level's bits.  Three or more rows share one
    ``_smooth`` run; one or two run faster on floats, unpadded."""
    if len(padded) <= 2:
        sequences = [row[-n:] for row, n in zip(padded, lengths.tolist())]
        return np.array([_smooth(seq[1:], float(seq[0]), *SES_STATES)[1] for seq in sequences])
    return _smooth(padded[:, 1:].T, padded[:, 0], *SES_STATES)[1]


class Adida(Croston):
    name = "adida"
    variant = "adida"
