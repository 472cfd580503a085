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

import numpy as np

from .adapters import resolve_model
from .errors import _FORECAST_FAILURES, ConfigError, SeriesTooShortError
from .panel import (
    DEFAULT_LEVELS,
    Series,
    SeriesPanel,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CrossValReport:
    """All evaluated rows, ordered by (model, series, cutoff, step)."""

    rows: tuple[CrossValRow, ...]
    model_names: tuple[str, ...]
    levels: tuple[float, ...] | None
    h: int
    n_windows: int
    step: int

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self) -> list[str]:
        return sorted({row.key for row in self.rows})

    def csv_header(self) -> str:
        cells = ["unique_id", "cutoff", "model", "step", "ds", "y", "yhat"]
        if self.levels is not None:
            cells.extend(level_column(l) for l in self.levels)
        cells.append("failed")
        return ",".join(cells)

    def to_csv(self, path_or_buffer=None):
        stamps = {row.cutoff_ts for row in self.rows} | {row.ds for row in self.rows}
        stamp_text = {ts: format_timestamp(ts) for ts in stamps}
        lines = [self.csv_header()]
        n_levels = 0 if self.levels is None else len(self.levels)
        for row in self.rows:
            cells = [
                row.key,
                stamp_text[row.cutoff_ts],
                row.model,
                str(row.step),
                stamp_text[row.ds],
                f"{row.y:.12g}",
                f"{row.yhat:.12g}",
            ]
            if n_levels:
                q = row.quantiles if row.quantiles is not None else (float("nan"),) * n_levels
                cells.extend(f"{v:.12g}" for v in q)
            cells.append("true" if row.failed else "false")
            lines.append(",".join(cells))
        return _emit_csv(lines, path_or_buffer)


def _as_forecaster(spec):
    if hasattr(spec, "forecast") and hasattr(spec, "name"):
        return spec
    return resolve_model(spec)


def _evaluate_fold(forecaster, panel, key, cutoff, h, levels):
    """Rows for one (model, series, cutoff) fold; forecasting failures
    become markers."""
    series = panel[key]
    cutoff_ts = series.timestamps[cutoff - 1]
    actual_ts = series.timestamps[cutoff : cutoff + h]
    actual_y = series.values[cutoff : cutoff + h].tolist()
    name = forecaster.name
    try:
        train = SeriesPanel._from_prefixes(
            {key: Series(series.timestamps[:cutoff], series.values[:cutoff])},
            panel.freq,
        )
        frame = forecaster.forecast(train, h, levels)
        entry = frame[key]
        yhat = entry.mean.tolist()
        if frame.levels is None:
            quantiles = [None] * h
        else:
            quantiles = [tuple(q) for q in entry.quantiles.tolist()]
        return [
            CrossValRow(
                key, cutoff, cutoff_ts, name, k + 1, actual_ts[k],
                actual_y[k], yhat[k], quantiles[k],
            )
            for k in range(h)
        ]
    except _FORECAST_FAILURES:
        nan_q = None if levels is None else (float("nan"),) * len(levels)
        return [
            CrossValRow(
                key, cutoff, cutoff_ts, name, k + 1, actual_ts[k],
                actual_y[k], float("nan"), nan_q, failed=True,
            )
            for k in range(h)
        ]


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
    ready forecaster objects.  Each fold trains on the first ``cutoff``
    observations only; the following ``h`` actuals are recorded verbatim.
    A forecasting failure of one (model, series, fold) is recorded as a
    marker and never aborts the run; a programming error propagates.
    """
    if len(panel) == 0:
        raise ConfigError("cannot cross-validate an empty panel")
    if not models:
        raise ConfigError("model list is empty")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if levels is not None:
        levels = validate_levels(levels)

    forecasters = [_as_forecaster(m) for m in models]
    names = [f.name for f in forecasters]
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise ConfigError(f"duplicate model name(s) in list: {', '.join(dupes)}")

    plans = {}
    for key, series in panel.items():
        try:
            plans[key] = rolling_cutoffs(len(series), h, n_windows, step)
        except SeriesTooShortError as exc:
            raise SeriesTooShortError(f"series {key!r}: {exc}") from None
    step_val = h if step is None else int(step)

    tasks = [
        (mi, key, fi, plans[key].cutoffs[fi])
        for mi in range(len(forecasters))
        for key in panel.keys()
        for fi in range(n_windows)
    ]
    results = {}
    if n_jobs == 1:
        for mi, key, fi, cutoff in tasks:
            results[(mi, key, fi)] = _evaluate_fold(
                forecasters[mi], panel, key, cutoff, h, levels
            )
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            futures = {
                (mi, key, fi): pool.submit(
                    _evaluate_fold, forecasters[mi], panel, key, cutoff, h, levels
                )
                for mi, key, fi, cutoff in tasks
            }
            results = {task: fut.result() for task, fut in futures.items()}

    rows = []
    for mi in range(len(forecasters)):
        for key in panel.keys():
            for fi in range(n_windows):
                rows.extend(results[(mi, key, fi)])
    return CrossValReport(
        tuple(rows), tuple(names), levels, int(h), int(n_windows), step_val
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
    loss = np.where(diff >= 0.0, level * diff, (level - 1.0) * diff)
    return float(loss) if loss.ndim == 0 else loss


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
    taus = np.asarray(levels, dtype=float)
    diff = y[:, None] - q
    losses = np.where(diff >= 0.0, taus[None, :] * diff, (taus[None, :] - 1.0) * diff)
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
        def fmt(value):
            return "" if value is None else f"{value:.12g}"

        lines = [self.csv_header()]
        for s in self.scores:
            cells = [
                s.model, str(s.rank), fmt(s.mase), fmt(s.crps), fmt(s.coverage),
                str(s.failures), str(s.mase_excluded), str(s.crps_excluded),
            ]
            if self.levels is not None:
                cells.extend(fmt(s.pinball_by_level.get(l)) for l in self.levels)
            lines.append(",".join(cells))
        return _emit_csv(lines, path_or_buffer)


def _score_model(name, rows, cv_levels, panel, season_length):
    failed_folds = {(r.key, r.cutoff) for r in rows if r.failed}
    ok = [r for r in rows if not r.failed]

    by_series: dict[str, list[CrossValRow]] = {}
    for row in ok:
        by_series.setdefault(row.key, []).append(row)

    # Point accuracy: per-fold MASE, averaged within series, then across.
    series_mase = []
    mase_excluded = 0
    for key, series_rows in sorted(by_series.items()):
        folds: dict[int, list[CrossValRow]] = {}
        for row in series_rows:
            folds.setdefault(row.cutoff, []).append(row)
        fold_values = []
        train_full = panel[key].values
        for cutoff, fold_rows in sorted(folds.items()):
            fold_rows.sort(key=lambda r: r.step)
            train = train_full[:cutoff]
            lag = season_length if train.size > season_length else 1
            value = mase(
                [r.y for r in fold_rows], [r.yhat for r in fold_rows], train, lag
            )
            if value is not None:
                fold_values.append(value)
        if fold_values:
            series_mase.append(float(np.mean(fold_values)))
        else:
            mase_excluded += 1
    mase_value = float(np.mean(series_mase)) if series_mase else None

    has_quantiles = (
        cv_levels is not None
        and bool(ok)
        and all(r.quantiles is not None for r in ok)
    )
    crps_value = None
    crps_excluded = 0
    pinball_by_level: dict[float, float] = {}
    coverage_value = None
    if has_quantiles:
        normalized = []
        for key, series_rows in sorted(by_series.items()):
            y = np.array([r.y for r in series_rows])
            q = np.array([r.quantiles for r in series_rows])
            normalizer = float(np.mean(np.abs(y)))
            if normalizer == 0.0:
                crps_excluded += 1
                continue
            normalized.append(crps_approx(y, q, cv_levels) / normalizer)
        crps_value = float(np.mean(normalized)) if normalized else None

        all_y = np.array([r.y for r in ok])
        all_q = np.array([r.quantiles for r in ok])
        for j, level in enumerate(cv_levels):
            pinball_by_level[level] = float(np.mean(pinball(all_y, all_q[:, j], level)))
        if len(cv_levels) >= 2:
            coverage_value = coverage(all_y, all_q, cv_levels, cv_levels[0], cv_levels[-1])

    return ModelScore(
        model=name,
        rank=0,
        mase=mase_value,
        crps=crps_value,
        pinball_by_level=pinball_by_level,
        coverage=coverage_value,
        failures=len(failed_folds),
        mase_excluded=mase_excluded,
        crps_excluded=crps_excluded,
    )


def aggregate_leaderboard(cv: CrossValReport, panel: SeriesPanel) -> EvalReport:
    """Collapse a cross-validation report into ranked per-model scores.

    Models are ranked by normalized CRPS when every model produced
    quantiles, otherwise by MASE; ties break on the model name.  Failure
    markers never enter the metrics; they are counted per model.
    """
    if not cv.rows:
        raise ConfigError("cannot aggregate an empty cross-validation report")
    by_model: dict[str, list[CrossValRow]] = {name: [] for name in cv.model_names}
    for row in cv.rows:
        by_model[row.model].append(row)

    scores = [
        _score_model(name, rows, cv.levels, panel, panel.season_length)
        for name, rows in by_model.items()
    ]
    ranked_by = "crps" if all(s.crps is not None for s in scores) else "mase"

    def sort_key(score):
        value = score.crps if ranked_by == "crps" else score.mase
        return (value if value is not None else float("inf"), score.model)

    scores.sort(key=sort_key)
    for position, score in enumerate(scores, start=1):
        score.rank = position
    return EvalReport(tuple(scores), ranked_by, cv.levels)
