"""Rolling-origin cross-validation and forecast accuracy metrics.

Conventions used throughout:

- A fold is identified by its cutoff, the number of observations the
  model may train on.  Folds are anchored at the series end: the last
  fold trains on all but the final ``h`` points.
- MASE divides the mean absolute test error by the training window's
  mean absolute lag-m difference (scale-free point accuracy).
- The CRPS approximation scores each observation as (2/L) times the sum
  of pinball losses over the L quantile levels; leaderboard aggregation
  normalizes each series by its mean absolute actual so that scores can
  be averaged across series of different magnitudes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from itertools import product

import numpy as np

from .adapters import EnsembleForecaster, resolve_models
from .errors import _FORECAST_FAILURES, ConfigError, SeriesTooShortError
from .models.base import _finite_rows
from .panel import (
    DEFAULT_LEVELS,
    Series,
    SeriesPanel,
    _csv_cell,
    _emit_csv,
    format_timestamp,
    level_column,
    validate_levels,
)

__all__ = [
    "CutoffPlan",
    "CrossValRow",
    "CrossValReport",
    "ModelScore",
    "EvalReport",
    "rolling_cutoffs",
    "cross_validate",
    "mase",
    "pinball",
    "crps_approx",
    "coverage",
    "aggregate_leaderboard",
]


@dataclass(frozen=True)
class CutoffPlan:
    """Train lengths for the rolling-origin folds of one series."""

    h: int
    n_windows: int
    step: int
    cutoffs: tuple[int, ...]


def rolling_cutoffs(n, h, n_windows=1, step=None) -> CutoffPlan:
    """Ascending cutoffs, spaced ``step`` apart, the last one at n - h.

    ``step`` defaults to ``h`` so that test windows do not overlap.
    """
    if step is None:
        step = h
    for name, value in (("n", n), ("h", h), ("n_windows", n_windows), ("step", step)):
        if int(value) != value or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    n, h, n_windows, step = int(n), int(h), int(n_windows), int(step)
    first = n - h - (n_windows - 1) * step
    if first < 1:
        feasible = 0 if n - h < 1 else (n - h - 1) // step + 1
        raise SeriesTooShortError(
            f"{n} observations cannot support {n_windows} fold(s) of horizon "
            f"{h} at step {step}; at most {feasible} fold(s) feasible"
        )
    return CutoffPlan(h, n_windows, step, tuple(first + i * step for i in range(n_windows)))


@dataclass(frozen=True, slots=True)
class CrossValRow:
    """One forecast step of one (series, cutoff, model) fold.

    ``cutoff`` is the fold's train length; ``cutoff_ts`` the timestamp of
    the last training observation.  Failed folds carry NaN forecasts and
    ``failed=True``.
    """

    key: str
    cutoff: int
    cutoff_ts: datetime
    model: str
    step: int
    ds: datetime
    y: float
    yhat: float
    quantiles: tuple[float, ...] | None
    failed: bool = False


@dataclass(frozen=True, eq=False)
class CrossValReport:
    """Cross-validation results, stored once as arrays.

    Axes: model (``model_names``), series (``series``, panel order), fold
    and step.  ``cutoffs[s, f]`` is a fold's train length, ``y[s, f, k]``
    its actuals and ``yhat[m, s, f, k]`` the point forecasts.
    ``quantiles[m]`` is ``[s, f, k, level]``, or None when no levels were
    requested or the model supports no quantiles.  ``failed[m, s, f]``
    marks failed folds, whose forecast cells hold NaN.  ``timestamps[s]``
    is the panel's own timestamp tuple.  ``rows`` is a derived row-per-step
    view.
    """

    model_names: tuple[str, ...]
    series: tuple[str, ...]
    timestamps: tuple[tuple[datetime, ...], ...]
    cutoffs: np.ndarray
    y: np.ndarray
    yhat: np.ndarray
    quantiles: tuple[np.ndarray | None, ...]
    failed: np.ndarray
    levels: tuple[float, ...] | None
    h: int
    n_windows: int
    step: int

    def __len__(self) -> int:
        return self.yhat.size

    def _folds(self):
        """Per fold, in row order: model, key, cutoff, the series'
        timestamps, actuals, forecasts, quantile rows as lists (None for a
        quantile-free model) and whether the fold failed."""
        for mi, model in enumerate(self.model_names):
            q = self.quantiles[mi]
            for si, key in enumerate(self.series):
                for fi, cutoff in enumerate(self.cutoffs[si].tolist()):
                    yield (
                        model, key, cutoff, self.timestamps[si],
                        self.y[si, fi].tolist(), self.yhat[mi, si, fi].tolist(),
                        None if q is None else q[si, fi].tolist(),
                        bool(self.failed[mi, si, fi]),
                    )

    @property
    def rows(self) -> tuple[CrossValRow, ...]:
        """One row per forecast step, ordered by (model, series, cutoff,
        step); rebuilt from the arrays on every access."""
        nan_q = None if self.levels is None else (float("nan"),) * len(self.levels)
        rows = []
        for model, key, cutoff, stamps, y, yhat, q, failed in self._folds():
            if failed or q is None:
                q = [nan_q if failed else None] * self.h
            else:
                q = list(map(tuple, q))
            rows.extend(
                CrossValRow(
                    key, cutoff, stamps[cutoff - 1], model, k + 1, stamps[cutoff + k],
                    y[k], yhat[k], q[k], failed,
                )
                for k in range(self.h)
            )
        return tuple(rows)

    def csv_header(self) -> str:
        cells = ["unique_id", "cutoff", "model", "step", "ds", "y", "yhat"]
        if self.levels is not None:
            cells.extend(level_column(l) for l in self.levels)
        cells.append("failed")
        return ",".join(cells)

    def to_csv(self, path_or_buffer=None):
        """One line per forecast step, in ``rows`` order, written fold by
        fold as it is formatted.  Each (series, fold)'s step, ``ds`` and
        ``y`` cells are formatted once and shared by every model; a fold's
        lines are then one %-template over its forecasts and quantiles."""
        return _emit_csv(self._csv_chunks(), path_or_buffer)

    def _csv_chunks(self):
        # "%" in a key or model name is escaped before it enters a template,
        # and the shared step cells (integers, ISO dates, numbers) hold none;
        # "%.12g" % x is "{:.12g}".format(x) for every float, nan and inf too.
        yield self.csv_header() + "\n"
        stamp_text = {ts: format_timestamp(ts) for ts in set().union(*self.timestamps)}
        n_levels = 0 if self.levels is None else len(self.levels)
        folds = []  # per series, per fold: the line prefix and the h step cells
        for key, stamps, cutoffs, y in zip(
            self.series, self.timestamps, self.cutoffs.tolist(), self.y.tolist()
        ):
            key = key.replace("%", "%%")
            folds.append([
                (f"{key},{stamp_text[stamps[cutoff - 1]]},", [
                    "%d,%s,%.12g" % (k + 1, stamp_text[stamps[cutoff + k]], a)
                    for k, a in enumerate(fold_y)
                ])
                for cutoff, fold_y in zip(cutoffs, y)
            ])
        for model, yhat, q, failed in zip(
            self.model_names, self.yhat, self.quantiles, self.failed.tolist()
        ):
            model = model.replace("%", "%%") + ","
            if q is None:
                cells, values = ",%.12g" + ",nan" * n_levels, yhat
            else:
                cells = ",%.12g" * (1 + n_levels)
                values = np.concatenate([yhat[..., None], q], axis=-1)
            tails = (cells + ",false\n", cells + ",true\n")
            values = values.reshape(*values.shape[:2], -1)  # [series, fold, step x cell]
            for series_folds, series_values, series_failed in zip(folds, values, failed):
                for (prefix, steps), fold_values, fold_failed in zip(
                    series_folds, series_values.tolist(), series_failed
                ):
                    head, tail = prefix + model, tails[fold_failed]
                    yield (head + (tail + head).join(steps) + tail) % tuple(fold_values)


def cross_validate(
    panel: SeriesPanel,
    models,
    h: int,
    n_windows: int = 1,
    step: int | None = None,
    levels=DEFAULT_LEVELS,
    n_jobs: int = 1,
) -> CrossValReport:
    """Evaluate each model on rolling-origin folds of every series.

    ``models`` may mix alias strings (resolved like CLI model specs) and
    ``Forecaster`` instances; anything else is a ConfigError.  Each fold
    trains on the first ``cutoff`` observations only; the following ``h``
    actuals are recorded verbatim.
    A forecasting failure of one (model, series, fold) is recorded as a
    failed fold and never aborts the run; a programming error propagates.
    Each model other than an ensemble, unlisted members included, is fitted
    once per fold by one panel step over its training prefixes (a block per
    prefix length for an array model); an ensemble fold is the median of its
    members' folds, one block per fold.  Only folds of a ``waits_on_network``
    forecaster run on a pool of ``n_jobs`` threads, which bounds the remote
    requests in flight.  The report is the same at any ``n_jobs``.
    """
    if len(panel) == 0:
        raise ConfigError("cannot cross-validate an empty panel")
    if not models:
        raise ConfigError("model list is empty")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if levels is not None:
        levels = validate_levels(levels)

    forecasters = resolve_models(models)
    names = [f.name for f in forecasters]

    # An ensemble member is matched to a listed model by class and name; an
    # unlisted one becomes an extra model after the listed ones, whose
    # slices are dropped from the report.
    index = {(type(f), f.name): i for i, f in enumerate(forecasters)}
    members = {}
    for mi, f in enumerate(forecasters[: len(names)]):
        if isinstance(f, EnsembleForecaster):
            for m in f.members:
                if (type(m), m.name) not in index:
                    index[type(m), m.name] = len(forecasters)
                    forecasters.append(m)
            members[mi] = [index[type(m), m.name] for m in f.members]

    keys = tuple(panel.keys())
    plans = []
    for key in keys:
        try:
            plans.append(rolling_cutoffs(len(panel[key]), h, n_windows, step))
        except SeriesTooShortError as exc:
            raise SeriesTooShortError(f"series {key!r}: {exc}") from None
    h, n_windows, step = plans[0].h, plans[0].n_windows, plans[0].step

    shape = (len(forecasters), len(keys), n_windows)
    cutoffs = np.array([plan.cutoffs for plan in plans], dtype=int)
    y = np.array([
        [panel[key].values[c : c + h] for c in plan.cutoffs]
        for key, plan in zip(keys, plans)
    ])
    yhat = np.full(shape + (h,), np.nan)
    failed = np.zeros(shape, dtype=bool)
    quantiles = [None] * len(forecasters)  # allocated at a model's first quantile block

    series = [panel[key] for key in keys]
    fitted = [mi for mi in range(len(forecasters)) if mi not in members]
    local = [mi for mi in fitted if not forecasters[mi].waits_on_network]
    remote = [(mi, si, fi) for mi in fitted if mi not in local
              for si in range(len(keys)) for fi in range(n_windows)]

    def record(mi, si, fi, result):
        """Record a result or failure; ``si`` is a series or an index array."""
        failed[mi, si, fi] = isinstance(result, Exception)
        if not isinstance(result, Exception):
            yhat[mi, si, fi], q = result[:2]
            if q is not None:
                if quantiles[mi] is None:
                    quantiles[mi] = np.full(shape[1:] + (h, len(levels)), np.nan)
                quantiles[mi][si, fi] = q

    def train(si, fi):
        # A validated series' prefix needs no validation, on month-end grids
        # too: the series has days min(A, month length), A its largest day;
        # if the prefix's largest day D < A, every prefix day is already its
        # month's end, so min(D, month length) reproduces each of them.
        s, cutoff = series[si], plans[si].cutoffs[fi]
        return Series(s.timestamps[:cutoff], s.values[:cutoff])

    def fit(fold):
        mi, si, fi = fold
        step = forecasters[mi]._forecast_panel([keys[si]], [train(si, fi)], panel.freq, h, levels)
        return next(step)

    def combine(mi, fi):
        """An ensemble's folds from its members' stored folds, in one block;
        a fold fails if a member's fold failed or a cell is not finite."""
        js, failed[mi, :, fi] = members[mi], True
        rows = np.flatnonzero(~failed[js, :, fi].any(axis=0))
        try:
            mean, q, _ = forecasters[mi]._combine([
                (yhat[j, rows, fi], None if quantiles[j] is None else quantiles[j][rows, fi], False)
                for j in js
            ], levels)
        except _FORECAST_FAILURES:
            return
        ok = _finite_rows(mean, q)
        if ok.any():
            record(mi, rows[ok], fi, (mean[ok], None if q is None else q[ok]))

    # Remote folds wait on the pool while each local model runs one panel
    # step per fold on this thread; ensembles combine after every member fold.
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        replies = pool.map(fit, remote)
        for fi in range(n_windows):  # one fold's prefixes alive at a time
            trains = [train(si, fi) for si in range(len(keys))]
            for mi in local:
                steps = forecasters[mi]._forecast_panel(keys, trains, panel.freq, h, levels)
                for si, result in enumerate(steps):
                    record(mi, si, fi, result)
        for fold, result in zip(remote, replies):
            record(*fold, result)
    for mi, fi in product(members, range(n_windows)):
        combine(mi, fi)

    listed = len(names)
    return CrossValReport(
        tuple(names), keys, tuple(panel[key].timestamps for key in keys), cutoffs, y,
        yhat[:listed], tuple(quantiles[:listed]), failed[:listed], levels, h, n_windows, step,
    )


def mase(actuals, forecasts, train, m: int = 1):
    """Mean absolute error scaled by the train window's lag-m differences.

    Returns None when the scale is zero (constant training window); the
    caller decides how to treat such undefined values.
    """
    a = np.asarray(actuals, dtype=float)
    f = np.asarray(forecasts, dtype=float)
    tr = np.asarray(train, dtype=float)
    if a.shape != f.shape:
        raise ValueError(f"actuals shape {a.shape} != forecasts shape {f.shape}")
    if a.size == 0:
        raise ValueError("empty evaluation window")
    if m < 1:
        raise ValueError(f"scale lag m must be >= 1, got {m}")
    if tr.size <= m:
        raise ValueError(
            f"training window of {tr.size} observations cannot form lag-{m} differences"
        )
    scale = float(np.mean(np.abs(tr[m:] - tr[:-m])))
    if scale == 0.0 or not np.isfinite(scale):
        return None
    return float(np.mean(np.abs(a - f)) / scale)


def pinball(actual, predicted, level: float):
    """Quantile loss: level*(y - yhat) above the prediction, (1-level)*(yhat - y) below."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"quantile level {level} outside open interval (0, 1)")
    diff = np.asarray(actual, dtype=float) - np.asarray(predicted, dtype=float)
    loss = _pinball_losses(diff, level)
    return float(loss) if loss.ndim == 0 else loss


def _pinball_losses(diff, taus):
    """Pinball losses of errors ``diff`` = actual - quantile at levels ``taus``."""
    return np.where(diff >= 0.0, taus * diff, (taus - 1.0) * diff)


def _check_quantile_block(actuals, quantiles, levels):
    y = np.asarray(actuals, dtype=float).ravel()
    q = np.asarray(quantiles, dtype=float)
    if q.ndim != 2 or q.shape != (y.size, len(levels)):
        raise ValueError(
            f"quantile matrix shape {q.shape} does not match "
            f"{y.size} observations x {len(levels)} levels"
        )
    return y, q


def crps_approx(actuals, quantiles, levels) -> float:
    """Pinball-based CRPS estimate, averaged over the observations.

    Per observation the score is (2/L) * sum_tau pinball(y, q_tau, tau).
    With the single level 0.5 this reduces to mean absolute error.
    """
    levels = validate_levels(levels)
    y, q = _check_quantile_block(actuals, quantiles, levels)
    losses = _pinball_losses(y[:, None] - q, np.asarray(levels, dtype=float))
    per_obs = (2.0 / len(levels)) * losses.sum(axis=1)
    return float(per_obs.mean())


def coverage(actuals, quantiles, levels, lower: float, upper: float) -> float:
    """Fraction of observations inside the [lower, upper] quantile band."""
    levels = validate_levels(levels)
    y, q = _check_quantile_block(actuals, quantiles, levels)
    if lower not in levels:
        raise ValueError(f"level {lower:g} not among forecast levels {levels}")
    if upper not in levels:
        raise ValueError(f"level {upper:g} not among forecast levels {levels}")
    if not lower < upper:
        raise ValueError(f"need lower < upper, got {lower:g} >= {upper:g}")
    lo = q[:, levels.index(lower)]
    hi = q[:, levels.index(upper)]
    return float(np.mean((y >= lo) & (y <= hi)))


@dataclass
class ModelScore:
    """Leaderboard line for one model.

    ``mase`` is a macro-average: fold values are averaged within each
    series, then across series.  ``crps`` pools each series' evaluated
    observations, normalizes by that series' mean absolute actual, and
    averages across series.  Quantile-free models score None on the
    probabilistic metrics.
    """

    model: str
    rank: int
    mase: float | None
    crps: float | None
    pinball_by_level: dict[float, float]
    coverage: float | None
    failures: int
    mase_excluded: int
    crps_excluded: int


@dataclass(frozen=True)
class EvalReport:
    """Per-model scores, sorted by rank (rank 1 first)."""

    scores: tuple[ModelScore, ...]
    ranked_by: str
    levels: tuple[float, ...] | None

    def __getitem__(self, model: str) -> ModelScore:
        for score in self.scores:
            if score.model == model:
                return score
        raise KeyError(model)

    def ranking(self) -> list[str]:
        return [score.model for score in self.scores]

    def csv_header(self) -> str:
        cells = [
            "model", "rank", "mase", "crps", "coverage",
            "failures", "mase_excluded", "crps_excluded",
        ]
        if self.levels is not None:
            cells.extend(f"pinball_{level_column(l)}" for l in self.levels)
        return ",".join(cells)

    def to_csv(self, path_or_buffer=None):
        lines = [self.csv_header() + "\n"]
        for s in self.scores:
            cells = [s.model, s.rank, s.mase, s.crps, s.coverage,
                     s.failures, s.mase_excluded, s.crps_excluded]
            if self.levels is not None:
                cells.extend(s.pinball_by_level.get(l) for l in self.levels)
            lines.append(",".join(map(_csv_cell, cells)) + "\n")
        return _emit_csv(lines, path_or_buffer)


def _mase_scales(cv, panel):
    """[series, fold] MASE scales shared by every model: the training
    window's mean absolute lag-m difference (lag 1 for a window of at most
    m points), NaN where undefined: zero, not finite, or a 1-point window.

    Series are grouped by (length, cutoffs); a group's scales at a fold are
    one row mean over the prefix of its block of lag differences."""
    m, scales = panel.season_length, np.full(cv.cutoffs.shape, np.nan)
    groups = {}
    for si, key in enumerate(cv.series):
        groups.setdefault((len(panel[key]), tuple(cv.cutoffs[si].tolist())), []).append(si)
    for (_, cutoffs), rows in groups.items():
        Y = np.array([panel[cv.series[si]].values for si in rows])
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = {lag: np.abs(Y[:, lag:] - Y[:, :-lag]) for lag in (1, m)}
            for fi, cutoff in enumerate(cutoffs):
                lag = m if cutoff > m else 1
                if cutoff > lag:  # the window's differences prefix the series'
                    scale = diffs[lag][:, : cutoff - lag].mean(axis=1)
                    scale[(scale == 0.0) | ~np.isfinite(scale)] = np.nan
                    scales[rows, fi] = scale
    return scales


def _score_model(cv, model_index, scales):
    """One model's leaderboard line.  A series' MASE and normalized CRPS
    are row means over its (fold, step) block; a series whose folds only
    partly failed averages its successful folds on its own, since its
    reductions run over fewer cells."""
    ok = ~cv.failed[model_index]
    yhat, q, levels = cv.yhat[model_index], cv.quantiles[model_index], cv.levels
    has_quantiles = levels is not None and q is not None and bool(ok.any())

    # Over the series with a successful fold: per-fold MASE averaged within
    # the series, and the series' pooled CRPS over its mean absolute actual.
    rows = ok.any(axis=1)
    partly = np.flatnonzero(rows & ~ok.all(axis=1))
    fold_mase, scored = np.abs(cv.y - yhat).mean(axis=-1) / scales, ok & ~np.isnan(scales)
    series_mase = fold_mase.mean(axis=1)
    for si in np.flatnonzero(scored.any(axis=1) & ~scored.all(axis=1)):
        series_mase[si] = np.mean(fold_mase[si, scored[si]])
    series_mase = series_mase[scored.any(axis=1)]
    normalized, pinball_by_level, coverage_value = np.empty(0), {}, None
    if has_quantiles:
        losses = _pinball_losses(cv.y[..., None] - q, np.asarray(levels, dtype=float))
        crps = (2.0 / len(levels)) * losses.sum(axis=-1)
        series_crps, normalizer = (a.reshape(len(a), -1).mean(axis=1) for a in (crps, np.abs(cv.y)))
        for si in partly:
            series_crps[si] = np.mean(crps[si, ok[si]])
            normalizer[si] = np.mean(np.abs(cv.y[si, ok[si]]))
        kept = rows & (normalizer != 0.0)
        normalized = series_crps[kept] / normalizer[kept]
        by_level = np.moveaxis(losses[ok], -1, 0).reshape(len(levels), -1)
        pinball_by_level = {level: float(np.mean(by_level[j])) for j, level in enumerate(levels)}
        if len(levels) >= 2:
            all_q = q[ok].reshape(-1, len(levels))
            coverage_value = coverage(cv.y[ok].reshape(-1), all_q, levels, levels[0], levels[-1])

    n_rows = int(rows.sum())
    return ModelScore(
        model=cv.model_names[model_index],
        rank=0,
        mase=float(np.mean(series_mase)) if series_mase.size else None,
        crps=float(np.mean(normalized)) if normalized.size else None,
        pinball_by_level=pinball_by_level,
        coverage=coverage_value,
        failures=int(cv.failed[model_index].sum()),
        mase_excluded=n_rows - series_mase.size,
        crps_excluded=n_rows - normalized.size if has_quantiles else 0,
    )


def aggregate_leaderboard(cv: CrossValReport, panel: SeriesPanel) -> EvalReport:
    """Collapse a cross-validation report into ranked per-model scores.

    Models are ranked by normalized CRPS when every model produced
    quantiles, otherwise by MASE; ties break on the model name.  Failed
    folds never enter the metrics; they are counted per model.
    """
    if len(cv) == 0:
        raise ConfigError("cannot aggregate an empty cross-validation report")
    scales = _mase_scales(cv, panel)
    scores = [_score_model(cv, mi, scales) for mi in range(len(cv.model_names))]
    ranked_by = "crps" if all(s.crps is not None for s in scores) else "mase"

    def sort_key(score):
        value = score.crps if ranked_by == "crps" else score.mase
        return (value if value is not None else float("inf"), score.model)

    scores.sort(key=sort_key)
    for position, score in enumerate(scores, start=1):
        score.rank = position
    return EvalReport(tuple(scores), ranked_by, cv.levels)
