"""Panel data model: regular time grids, CSV ingestion, splitting.

A panel is a keyed collection of univariate series that share one
frequency.  Monthly, quarterly and yearly grids are calendar-aware (the
anchor day-of-month is preserved and clamped to month end); weekly, daily
and hourly grids are fixed-duration.  All timestamps are naive calendar
instants.
"""

from __future__ import annotations

import calendar
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateTimestampError,
    FrequencyError,
    InsufficientDataError,
    NonFiniteForecastError,
    ParseError,
    SchemaError,
    SeriesTooShortError,
)

# Season lengths follow standard forecasting-library conventions.
SEASON_LENGTHS = {"Y": 1, "Q": 4, "M": 12, "W": 52, "D": 7, "H": 24}

_UNIT_NAMES = {
    "Y": "yearly",
    "Q": "quarterly",
    "M": "monthly",
    "W": "weekly",
    "D": "daily",
    "H": "hourly",
}

_MONTH_STEPS = {"Y": 12, "Q": 3, "M": 1}
_TIMEDELTA_STEPS = {
    "W": timedelta(weeks=1),
    "D": timedelta(days=1),
    "H": timedelta(hours=1),
}

DEFAULT_ID_COLUMN = "unique_id"
DEFAULT_TIME_COLUMN = "ds"
DEFAULT_VALUE_COLUMN = "y"

DEFAULT_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Frequency:
    """A supported sampling frequency; ``unit`` is one of Y/Q/M/W/D/H."""

    unit: str

    def __post_init__(self):
        if self.unit not in SEASON_LENGTHS:
            raise FrequencyError(
                f"unsupported frequency unit {self.unit!r}; "
                f"expected one of {sorted(SEASON_LENGTHS)}"
            )

    @property
    def season_length(self) -> int:
        return SEASON_LENGTHS[self.unit]

    @property
    def name(self) -> str:
        return _UNIT_NAMES[self.unit]

    def __str__(self) -> str:
        return self.unit


def validate_levels(levels: Sequence[float]) -> tuple[float, ...]:
    """Check quantile levels: strictly increasing, all inside (0, 1)."""
    out = tuple(float(l) for l in levels)
    if not out:
        raise ValueError("quantile levels must be non-empty")
    for l in out:
        if not 0.0 < l < 1.0:
            raise ValueError(f"quantile level {l} outside open interval (0, 1)")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"quantile levels must be strictly increasing, got {out}")
    return out


def level_column(level: float) -> str:
    """Canonical CSV column name for a quantile level, e.g. 0.1 -> 'q10'."""
    return f"q{level * 100:g}"


def _month_grid(anchor: datetime, step: int, day: int, n: int) -> tuple[datetime, ...]:
    """``n`` instants ``step`` months apart from ``anchor``'s month, each on
    ``day`` clamped to its month's end, with the anchor's time of day,
    ``tzinfo`` and ``fold``.  The year and month step as integers; ``fold``
    is set afterwards, only when it is 1: the keyword makes each
    ``datetime`` call about a third slower."""
    tail = (anchor.hour, anchor.minute, anchor.second, anchor.microsecond, anchor.tzinfo)
    mdays, isleap = calendar.mdays, calendar.isleap
    year, month, grid = anchor.year, anchor.month, []
    for _ in range(n):
        last = mdays[month] + (month == 2 and isleap(year))
        grid.append(datetime(year, month, day if day <= last else last, *tail))
        month += step
        if month > 12:
            year, month = year + (month - 1) // 12, (month - 1) % 12 + 1
    if anchor.fold:
        grid = [ts.replace(fold=1) for ts in grid]
    return tuple(grid)


def _add_months(anchor: datetime, months: int, day: int) -> datetime:
    """Shift by ``months >= 0`` whole months onto ``day``, clamped to the
    month's end."""
    return _month_grid(anchor, months, day, 2)[1]


def _grid_point(anchor: datetime, freq: Frequency, steps: int) -> datetime:
    """The grid instant ``steps`` frequency steps after ``anchor``."""
    if freq.unit in _MONTH_STEPS:
        return _add_months(anchor, _MONTH_STEPS[freq.unit] * steps, anchor.day)
    return anchor + _TIMEDELTA_STEPS[freq.unit] * steps


def future_grid(last_timestamp: datetime, freq: Frequency, h: int) -> list[datetime]:
    """Exactly ``h`` instants continuing the grid right after ``last_timestamp``."""
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    if freq.unit in _MONTH_STEPS:
        step = _MONTH_STEPS[freq.unit]
        return list(_month_grid(last_timestamp, step, last_timestamp.day, h + 1)[1:])
    return [_grid_point(last_timestamp, freq, k) for k in range(1, h + 1)]


def _matches_grid(timestamps: Sequence[datetime], freq: Frequency, grids=None) -> bool:
    """Whether the timestamps lie on ``freq``'s grid from their first one.
    ``grids`` keeps each month-based grid by (anchor, anchor day, step), so
    series that share one compare against a prefix of a single tuple."""
    anchor = timestamps[0]
    if freq.unit not in _MONTH_STEPS:
        return all(
            ts == _grid_point(anchor, freq, i) for i, ts in enumerate(timestamps)
        )
    # Month-based grids: the anchor day may exceed some months' length, so
    # observed days are clamped.  Recover it as the largest day seen.
    anchor_day, step = max(ts.day for ts in timestamps), _MONTH_STEPS[freq.unit]
    key, n, grids = (anchor, anchor_day, step), len(timestamps), {} if grids is None else grids
    last = timestamps[-1]  # checked first, so no grid runs past the data's last year
    if (last.year - anchor.year) * 12 + last.month - anchor.month != step * (n - 1):
        return False
    grid = grids.get(key, ())
    if len(grid) < n:
        grid = grids[key] = _month_grid(anchor, step, anchor_day, n)
    return tuple(timestamps) == grid[:n]


def infer_frequency(timestamps: Sequence[datetime]) -> Frequency:
    """Return the unique frequency whose anchored grid the timestamps lie on."""
    if len(timestamps) < 3:
        raise InsufficientDataError(
            f"need at least 3 timestamps to infer a frequency, got {len(timestamps)}"
        )
    if any(b <= a for a, b in zip(timestamps, timestamps[1:])):
        raise FrequencyError("timestamps must be strictly increasing")
    for unit in ("H", "D", "W", "M", "Q", "Y"):
        freq = Frequency(unit)
        if _matches_grid(timestamps, freq):
            return freq
    raise FrequencyError(
        f"timestamps starting at {timestamps[0].isoformat()} do not lie on any "
        "supported regular grid (Y/Q/M/W/D/H)"
    )


@dataclass(frozen=True)
class Series:
    """One univariate series: strictly increasing timestamps plus values."""

    timestamps: tuple[datetime, ...]
    values: np.ndarray  # float64, same length as timestamps

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float)
        )
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values length mismatch")

    def __len__(self) -> int:
        return len(self.values)


class _Keyed:
    """Read-only mapping in sorted key order: ``keys``, ``items``, ``[]``,
    ``len`` and ``in``."""

    def __init__(self, entries: Mapping):
        self._entries = {key: entries[key] for key in sorted(entries)}

    def keys(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __getitem__(self, key: str):
        return self._entries[key]

    def items(self) -> Iterator[tuple]:
        return iter(self._entries.items())


class SeriesPanel(_Keyed):
    """Immutable keyed collection of series sharing one frequency."""

    def __init__(self, series: Mapping[str, Series], freq: Frequency | None):
        if series and freq is None:
            raise FrequencyError("non-empty panel requires a frequency")
        grids = {}
        for key, s in series.items():
            if not key:
                raise SchemaError("series id must be non-empty")
            if len(s) < 1:
                raise InsufficientDataError(f"series {key!r} is empty")
            finite = np.isfinite(s.values)
            if not finite.all():
                i = int(np.argmin(finite))
                raise SchemaError(
                    f"series {key!r}: non-finite value {float(s.values[i])} "
                    f"at position {i}"
                )
            if any(b <= a for a, b in zip(s.timestamps, s.timestamps[1:])):
                raise FrequencyError(
                    f"series {key!r}: timestamps must be strictly increasing"
                )
            if freq is not None and not _matches_grid(s.timestamps, freq, grids):
                raise FrequencyError(
                    f"series {key!r}: timestamps are not regular on the "
                    f"{freq.name} grid"
                )
        super().__init__(series)
        self._freq = freq

    @property
    def freq(self) -> Frequency | None:
        return self._freq

    @property
    def season_length(self) -> int:
        return self._freq.season_length if self._freq else 1

    def equals(self, other: "SeriesPanel") -> bool:
        if self.keys() != other.keys():
            return False
        if (self._freq is None) != (other._freq is None):
            return False
        if self._freq is not None and self._freq.unit != other._freq.unit:
            return False
        for key in self.keys():
            a, b = self[key], other[key]
            if a.timestamps != b.timestamps:
                return False
            if not np.array_equal(a.values, b.values):
                return False
        return True

    def to_csv(self, path_or_buffer=None):
        """Write the panel in long format; values at full (repr) precision."""
        header = f"{DEFAULT_ID_COLUMN},{DEFAULT_TIME_COLUMN},{DEFAULT_VALUE_COLUMN}\n"
        chunks = (
            "".join(f"{key},{format_timestamp(ts)},{float(v)!r}\n"
                    for ts, v in zip(s.timestamps, s.values))
            for key, s in self._entries.items()
        )
        return _emit_csv(chain((header,), chunks), path_or_buffer)


def _csv_cell(value) -> str:
    """One CSV cell: empty for None, ``true``/``false``, a float at 12
    significant digits (``nan`` and ``inf`` too), else ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.12g" % value if isinstance(value, float) else str(value)


def _emit_csv(chunks: Iterable[str] | str, path_or_buffer=None):
    """Write text chunks, each ending in a newline, to a stream or, as UTF-8,
    to a path as they come; join them only to return the text when there is
    no target.  A str is one chunk."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if path_or_buffer is None:
        return "".join(chunks)
    if hasattr(path_or_buffer, "write"):
        for chunk in chunks:
            path_or_buffer.write(chunk)
    else:
        with open(path_or_buffer, "w", encoding="utf-8") as fp:
            fp.writelines(chunks)
    return None


def format_timestamp(ts: datetime) -> str:
    """ISO-8601; date-only when there is no time-of-day component."""
    if ts.hour == ts.minute == ts.second == ts.microsecond == 0:
        return ts.date().isoformat()
    return ts.isoformat(sep="T")


def parse_timestamp(text: str) -> datetime:
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        pass
    else:
        if ts.tzinfo is not None:
            raise ValueError(f"timestamp {text!r} carries a UTC offset")
        return ts
    for fmt in ("%Y-%m-%d %H:%M", "%Y-%m-%dT%H:%M", "%Y/%m/%d"):
        try:
            return datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
    raise ValueError(f"unparseable timestamp {text!r}")


def _split_csv_line(line: str) -> list[str]:
    # Plain comma split; the canonical schema has no quoted fields.
    return [cell.strip() for cell in line.rstrip("\r\n").split(",")]


def parse_panel(
    source,
    id_column: str = DEFAULT_ID_COLUMN,
    time_column: str = DEFAULT_TIME_COLUMN,
    value_column: str = DEFAULT_VALUE_COLUMN,
    freq: Frequency | str | None = None,
) -> SeriesPanel:
    """Parse a long-format CSV (header + id/timestamp/value columns).

    ``source`` may be a path, a text stream, or bytes.  Frequency is
    inferred from the data unless ``freq`` overrides it.
    """
    if isinstance(freq, str):
        freq = Frequency(freq)
    if isinstance(source, bytes):
        lines = io.StringIO(source.decode("utf-8"))
    elif hasattr(source, "read"):
        lines = source
    else:
        lines = open(source, "r", encoding="utf-8")

    with_close = not hasattr(source, "read") or isinstance(source, bytes)
    try:
        header_line = lines.readline().removeprefix("\ufeff")  # a UTF-8 byte order mark
        if not header_line:
            raise SchemaError("empty input: missing header row")
        header = _split_csv_line(header_line)
        positions = {}
        for col in (id_column, time_column, value_column):
            if col not in header:
                raise SchemaError(f"missing column {col!r} in CSV header")
            positions[col] = header.index(col)

        raw: dict[str, dict[datetime, float]] = {}
        # Only the three used cells are stripped, once each.  Each distinct
        # timestamp text is parsed once; a bad one raises at its first row,
        # since failures are not stored.
        stamps: dict[str, datetime] = {}
        id_at, time_at, value_at = (positions[c] for c in (id_column, time_column, value_column))
        for row_number, line in enumerate(lines, start=2):
            cells = line.split(",")
            if len(cells) == 1 and not cells[0].strip():
                continue  # a blank or whitespace-only line
            if len(cells) != len(header):
                raise ParseError(
                    f"row {row_number}: expected {len(header)} columns, got {len(cells)}"
                )
            key = cells[id_at].strip()
            if not key:
                raise ParseError(f"row {row_number}: empty series id")
            text = cells[time_at].strip()
            ts = stamps.get(text)
            if ts is None:
                try:
                    ts = stamps[text] = parse_timestamp(text)
                except ValueError as exc:
                    raise ParseError(f"row {row_number}: {exc}") from None
            cell = cells[value_at].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"row {row_number}: unparseable value {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(
                    f"row {row_number}: non-finite value {cell!r} for series {key!r}"
                )
            points = raw.get(key)
            if points is None:
                points = raw[key] = {}
            elif ts in points:
                raise DuplicateTimestampError(
                    f"row {row_number}: duplicate timestamp "
                    f"{format_timestamp(ts)} for series {key!r}"
                )
            points[ts] = value
    finally:
        if with_close:
            lines.close()

    series = {}
    for key, points in raw.items():
        times = tuple(sorted(points))
        series[key] = Series(times, np.array([points[ts] for ts in times], dtype=float))

    if not series:
        return SeriesPanel({}, freq)

    if freq is None:
        for s in series.values():
            if len(s) >= 3:
                freq = infer_frequency(s.timestamps)
                break
        else:
            raise InsufficientDataError(
                "no series has >= 3 observations; pass an explicit frequency"
            )
    return SeriesPanel(series, freq)


def train_test_split(panel: SeriesPanel, h: int) -> tuple[SeriesPanel, SeriesPanel]:
    """Hold out the final ``h`` observations of every series."""
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    train, test = {}, {}
    for key, s in panel.items():
        if len(s) <= h:
            raise SeriesTooShortError(
                f"series {key!r} has {len(s)} observations; need more than h={h}"
            )
        train[key] = Series(s.timestamps[:-h], s.values[:-h])
        test[key] = Series(s.timestamps[-h:], s.values[-h:])
    return SeriesPanel(train, panel.freq), SeriesPanel(test, panel.freq)


@dataclass(frozen=True)
class ForecastEntry:
    """Forecast of one series: h timestamps, h means, optional h x L quantiles."""

    timestamps: tuple[datetime, ...]
    mean: np.ndarray
    quantiles: np.ndarray | None = None
    fallback: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        if len(self.timestamps) != len(self.mean):
            raise ValueError("timestamps and mean length mismatch")
        if self.quantiles is not None:
            q = np.asarray(self.quantiles, dtype=float)
            if q.shape[0] != len(self.mean):
                raise ValueError("quantile matrix row count != horizon")
            object.__setattr__(self, "quantiles", q)


def _check_finite(mean, quantiles, model: str, key: str) -> None:
    """A non-finite mean or quantile is a forecasting failure, so auto
    models fall back to naive and cross-validation fails the fold."""
    if not np.isfinite(mean).all() or (
        quantiles is not None and not np.isfinite(quantiles).all()
    ):
        raise NonFiniteForecastError(f"{model} gave a non-finite forecast for series {key!r}")


class ForecastFrame(_Keyed):
    """Per-series horizon forecasts of a single model."""

    def __init__(
        self,
        model: str,
        entries: Mapping[str, ForecastEntry],
        levels: tuple[float, ...] | None,
    ):
        if levels is not None:
            levels = validate_levels(levels)
            for key, e in entries.items():
                if e.quantiles is None:
                    raise ValueError(f"entry {key!r} missing quantiles")
                if e.quantiles.shape[1] != len(levels):
                    raise ValueError(
                        f"entry {key!r}: quantile matrix has "
                        f"{e.quantiles.shape[1]} columns, expected {len(levels)}"
                    )
        else:
            for key, e in entries.items():
                if e.quantiles is not None:
                    raise ValueError(f"entry {key!r} carries quantiles but no levels")
        super().__init__(entries)
        self.model = model
        self.levels = levels

    def horizon(self) -> int:
        first = next(iter(self._entries.values()))
        return len(first.mean)

    def to_csv_rows(self) -> list[str]:
        rows = []
        for key, e in self._entries.items():
            for i, (ts, mu) in enumerate(zip(e.timestamps, e.mean)):
                cells = [key, format_timestamp(ts), self.model, mu]
                if self.levels is not None:
                    cells.extend(e.quantiles[i])
                rows.append(",".join(map(_csv_cell, cells)))
        return rows

    def csv_header(self) -> str:
        cells = [DEFAULT_ID_COLUMN, DEFAULT_TIME_COLUMN, "model", "mean"]
        if self.levels is not None:
            cells.extend(level_column(l) for l in self.levels)
        return ",".join(cells)


def frames_to_csv(frames: Sequence[ForecastFrame]) -> str:
    """Concatenate forecast frames into one CSV document.  A quantile-free
    frame's rows hold ``nan`` under the other frames' levels, which must agree."""
    if not frames:
        return ""
    first = next((f for f in frames if f.levels is not None), frames[0])
    header, pad = first.csv_header(), ",nan" * len(first.levels or ())
    lines = [header]
    for f in frames:
        if f.levels is not None and f.csv_header() != header:
            raise ValueError("frames disagree on quantile levels")
        rows = f.to_csv_rows()
        lines.extend(rows if f.levels is not None else (row + pad for row in rows))
    return "\n".join(lines) + "\n"
