"""Model resolution, the adapter and ensemble forecasters, and the
remote-forecaster wire protocol (v1).

A model is requested by a spec string: a bare registry alias, an
"adapter:<url>" pointing at a forecast server, or
"median_ensemble:a+b+c" combining other specs.  ``RemoteForecaster`` and
``EnsembleForecaster`` override only the per-series step of
``Forecaster``, so the default panel step runs them series by series.
A CV fold of a remote model is one step; an ensemble combines its
members' folds, one block per fold (``_combine``).  The remote step is
one JSON request (POST {base}/forecast) through the retrying client in
``_http``, whose response must hold ``h`` finite JSON numbers (not
``"1.5"`` or ``true``) for the mean and for each requested level.  The
client keeps HTTP/1.1 connections alive, one per request in flight.
A threaded stub server mirroring any builtin model backs the tests; it
lives in ``_stub``, which the first ``serve_stub`` call imports.  It
checks a request as ``Forecaster.forecast`` checks a one-series panel,
with ``h`` a JSON integer and ``y`` and ``levels`` lists of JSON numbers
(else a 400 naming the field), answers through the model's per-series
step (no forecast timestamps, no frame), and sends each reply, headers
and body, in one buffered write.  It speaks HTTP/1.1 with TCP_NODELAY,
reads each request body before it replies, ends a connection quietly
when a reply cannot be sent, and ends its kept-alive connections on
close().  The client still encodes each fold's whole prefix, one
request per (series, fold).

Wire format, request:  {"id", "freq", "ds", "y", "h", "levels"}
           response:   {"model", "mean", "quantiles"?, "elapsed_ms"}
Numbers travel as JSON decimals with at most 12 significant digits;
timestamps as ISO-8601 text.
"""

from __future__ import annotations

import time
import urllib.parse
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._http import DEFAULT_BACKOFF_MS, DEFAULT_MAX_RETRIES, check_policy, post_json
from .errors import ConfigError, ProtocolError
from .ensemble import _median_values, _monotone_rows
from .models import Forecaster, get_model
from .models.base import forecast_levels
from .panel import (
    DEFAULT_LEVELS,
    ForecastFrame,
    Frequency,
    Series,
    SeriesPanel,
    _check_finite,
    format_timestamp,
    parse_timestamp,
)

DEFAULT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ModelSpec:
    alias: str
    url: str | None = None
    timeout: float = DEFAULT_TIMEOUT_S
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_ms: float = DEFAULT_BACKOFF_MS
    members: tuple["ModelSpec", ...] = ()

    def __post_init__(self):
        check_policy(self)

    @property
    def kind(self) -> str:
        """adapter (a spec with a url), ensemble (with members) or builtin."""
        return "adapter" if self.url is not None else "ensemble" if self.members else "builtin"


def parse_model_alias(spec: str, **adapter_overrides) -> ModelSpec:
    """Parse a model spec string into a ModelSpec tree."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty model spec")
    if spec.startswith("adapter:"):
        url = spec[len("adapter:"):]
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ConfigError(f"malformed adapter URL {url!r}")
        return ModelSpec(alias=spec, url=url.rstrip("/"), **adapter_overrides)
    if spec.startswith("median_ensemble:"):
        body = spec[len("median_ensemble:"):]
        names = [part for part in body.split("+") if part]
        if not names:
            raise ConfigError(f"ensemble spec {spec!r} names no members")
        members = []
        for name in names:
            if name.startswith("median_ensemble:"):
                raise ConfigError("nested ensembles are not supported")
            members.append(parse_model_alias(name, **adapter_overrides))
        return ModelSpec(alias=spec, members=tuple(members))
    get_model(spec)  # an unknown alias is an UnknownModelError
    return ModelSpec(alias=spec)


def resolve_model(spec: ModelSpec | str):
    """Turn a spec (or spec string) into a ready forecaster object."""
    if isinstance(spec, str):
        spec = parse_model_alias(spec)
    elif not isinstance(spec, ModelSpec):
        raise ConfigError(f"a model is given by a spec string, not a {type(spec).__name__}")
    if spec.kind == "builtin":
        return get_model(spec.alias)
    if spec.kind == "adapter":
        return RemoteForecaster(spec)
    return EnsembleForecaster([resolve_model(m) for m in spec.members])


def resolve_models(models) -> list[Forecaster]:
    """One forecaster per spec, spec string or ``Forecaster`` instance; a
    ConfigError if two of them share a name."""
    forecasters = [m if isinstance(m, Forecaster) else resolve_model(m) for m in models]
    names = [f.name for f in forecasters]
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise ConfigError(f"duplicate model name(s) in list: {', '.join(dupes)}")
    return forecasters


def _round12(values) -> list[float]:
    """Each value rounded to 12 significant digits, as ``float(f"{x:.12g}")``,
    through one %-template for the whole array."""
    values = np.asarray(values, dtype=float).tolist()
    return list(map(float, ("%.12g," * len(values) % tuple(values)).split(",")[:-1]))


def _level_key(level: float) -> str:
    return f"{level:g}"


def _all_numbers(values: list) -> bool:
    """Whether every value decoded from a JSON number: an int or a float,
    not ``true`` or ``"1.5"``."""
    return set(map(type, values)) <= {int, float}


def _validate_response(data: dict, h: int, levels, key: str):
    """The mean and the h x L quantile matrix of one response.  Each must
    be a list of ``h`` finite JSON numbers, else a ProtocolError names the
    series and the field."""
    if not isinstance(data, dict) or "mean" not in data:
        raise ProtocolError(f"adapter response for {key!r} lacks a 'mean' field")
    columns = [data["mean"]]
    if levels is not None:
        raw = data.get("quantiles")
        if not isinstance(raw, dict):
            raise ProtocolError(
                f"expected quantiles for {len(levels)} levels for {key!r}, got none"
            )
        columns += [raw.get(_level_key(level)) for level in levels]

    def field(i):
        return "mean values" if i == 0 else f"values at level {levels[i - 1]:g}"

    for i, column in enumerate(columns):
        got = len(column) if isinstance(column, list) else type(column).__name__
        if got != h:
            raise ProtocolError(f"expected {h} {field(i)} for {key!r}, got {got}")
        if not _all_numbers(column):
            raise ProtocolError(f"the {field(i)} for {key!r} hold a value that is not a number")
    try:
        values = np.array(columns, dtype=float)
    except OverflowError:  # an integer past float range
        raise ProtocolError(f"the values for {key!r} hold a number too large") from None
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values).all(axis=1)))
        raise ProtocolError(f"the {field(bad)} for {key!r} are not all finite")
    return values[0], (values[1:].T if levels is not None else None)


def remote_forecast(
    spec: ModelSpec,
    panel: SeriesPanel,
    h: int,
    levels: Sequence[float] | None = DEFAULT_LEVELS,
) -> ForecastFrame:
    """Forecast every series in the panel through the adapter protocol."""
    if spec.kind != "adapter":
        raise ValueError(f"remote_forecast needs an adapter spec, got {spec.kind!r}")
    return RemoteForecaster(spec).forecast(panel, h, levels)


class RemoteForecaster(Forecaster):
    """A model behind an adapter URL: one request per series."""

    waits_on_network = True

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.name = spec.alias

    def _forecast_values(self, key, series, freq, h, levels):
        payload = {
            "id": key,
            "freq": freq.unit,
            "ds": [format_timestamp(ts) for ts in series.timestamps],
            "y": _round12(series.values),
            "h": h,
            "levels": [float(lv) for lv in (levels or ())],
        }
        data = post_json(f"{self.spec.url}/forecast", payload, self.spec)
        mean, quantiles = _validate_response(data, h, levels, key)
        return mean, quantiles, False


class EnsembleForecaster(Forecaster):
    """Median of the members' forecasts of each series.

    Quantile rows are monotonized after the median; requesting levels
    when no member forecasts quantiles is a config error.  A non-finite
    combined cell (finite members can overflow in the median's midpoint)
    is a forecasting failure, as it is for a single model.
    """

    def __init__(self, members: Sequence[Forecaster]):
        members = list(members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        if any(isinstance(m, EnsembleForecaster) for m in members):
            raise ConfigError("nested ensembles are not supported")
        self.members = members
        self.name = f"median_ensemble[{'+'.join(m.name for m in members)}]"

    def _forecast_values(self, key, series, freq, h, levels):
        mean, quantiles, fallback = self._combine(
            (m._forecast_values(key, series, freq, h, levels) for m in self.members), levels
        )
        _check_finite(mean, quantiles, self.name, key)
        return mean, quantiles, fallback

    def _combine(self, member_results, levels):
        """(mean, quantiles, fallback), unchecked for non-finite cells, of one
        series or an (S, h) block from its members' steps or stored CV folds."""
        mean, quantiles, fallback = _median_values(member_results)
        if levels is not None and quantiles is None:
            raise ConfigError("quantile levels requested but no ensemble member supports quantiles")
        if quantiles is not None:
            quantiles = _monotone_rows(quantiles)
        return mean, quantiles, fallback


def _numbers(values, field_name: str) -> list:
    """``values`` if it is a list of JSON numbers, else a ValueError naming
    the field: ``true`` and ``"1.5"`` are not numbers."""
    if not isinstance(values, list):
        raise ValueError(f"field {field_name!r} must be a list of numbers")
    if not _all_numbers(values):
        i = next(i for i, v in enumerate(values) if type(v) not in (int, float))
        raise ValueError(f"field {field_name!r} holds {values[i]!r} at position {i}, not a number")
    return values


def _stub_forecast(alias: str, data: dict) -> dict:
    """The reply to one request, checked as ``Forecaster.forecast`` checks
    a one-series panel and answered through the model's per-series step,
    its (1 + L) * h cells rounded in one pass and sliced per field."""
    started = time.monotonic()
    for field_name in ("id", "freq", "ds", "y", "h"):
        if field_name not in data:
            raise ValueError(f"request lacks required field {field_name!r}")
    timestamps = tuple(map(parse_timestamp, data["ds"]))
    values = np.asarray(_numbers(data["y"], "y"), dtype=float)
    if len(timestamps) != len(values):
        raise ValueError("ds and y lengths differ")
    key, freq = data["id"], Frequency(data["freq"])
    series = SeriesPanel({key: Series(timestamps, values)}, freq)[key]
    levels = data.get("levels")  # absent, null or [] asks for no quantiles
    levels = None if levels is None else tuple(_numbers(levels, "levels")) or None
    h = data["h"]
    if type(h) is not int:
        raise ValueError(f"field 'h' must be an integer, got {h!r}")
    levels = forecast_levels(h, levels)
    mean, quantiles, _ = get_model(alias)._forecast_values(key, series, freq, h, levels)
    cells = _round12(mean if quantiles is None else np.concatenate((mean, quantiles.T.ravel())))
    response = {
        "model": alias,
        "mean": cells[:h],
        "elapsed_ms": int((time.monotonic() - started) * 1000.0),
    }
    if quantiles is not None:
        response["quantiles"] = {
            _level_key(level): cells[h * (j + 1) : h * (j + 2)] for j, level in enumerate(levels)
        }
    return response


def serve_stub(host: str = "127.0.0.1", port: int = 0, alias: str = "seasonalnaive"):
    """Start a threaded stub (a ``_stub.StubServer``) mirroring a builtin
    model; port 0 picks a free one."""
    get_model(alias)  # an unknown alias is an UnknownModelError before the port opens
    from ._stub import StubServer

    return StubServer(host, port, alias)
