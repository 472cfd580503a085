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
``_http``, whose response must hold ``h`` finite values for the mean and
for each requested level.  The client keeps HTTP/1.1 connections alive,
one per request in flight.
A threaded stub server mirroring any builtin model backs the tests.  It
speaks HTTP/1.1 with TCP_NODELAY, reads each request body before it
replies, and ends its kept-alive connections on close().

Wire format, request:  {"id", "freq", "ds", "y", "h", "levels"}
           response:   {"model", "mean", "quantiles"?, "elapsed_ms"}
Numbers travel as JSON decimals with at most 12 significant digits;
timestamps as ISO-8601 text.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

import numpy as np

from ._http import DEFAULT_BACKOFF_MS, DEFAULT_MAX_RETRIES, check_policy, post_json
from .errors import ConfigError, ProtocolError
from .ensemble import _median_values, _monotone_rows
from .models import Forecaster, get_model
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


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _level_key(level: float) -> str:
    return f"{level:g}"


def _validate_response(data: dict, h: int, levels, key: str):
    """The mean and the h x L quantile matrix of one response.  Each must
    be a list of ``h`` finite numbers, else a ProtocolError names the
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
    try:
        values = np.array(columns, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.ndim != 2:
        raise ProtocolError(f"adapter response for {key!r} holds a value that is not a number")
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
            "y": [_round12(v) for v in series.values],
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


class _StubHandler(BaseHTTPRequestHandler):
    stub: "StubServer"  # bound by StubServer

    # Keep-alive: without TCP_NODELAY, Nagle's algorithm holds back the
    # body (a second write after the headers) until the client's delayed
    # ACK, about 40 ms on every kept-alive reply.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, *args):
        pass

    def _send(self, code: int, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            self.close_connection = True  # client gave up (e.g. timed out)

    def do_GET(self):
        stub = self.stub
        with stub.lock:
            stub.requests += 1
        if self.path == "/health":
            self._send(200, {"status": "ok", "model": stub.alias})
        else:
            self._send(404, {"error": f"no such path {self.path}"})

    def do_POST(self):
        stub = self.stub
        with stub.lock:
            stub.requests += 1
            injected = stub.failures.popleft() if stub.failures else None
            delay = stub.delay_s
        # The body is read before any reply: left unread on a kept-alive
        # connection, it would be parsed as the next request.
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0 or "Transfer-Encoding" in self.headers:
                raise ValueError
        except ValueError:
            self.close_connection = True  # where this request ends is unknown
            self._send(400, {"error": "a request body needs a valid Content-Length"})
            return
        body = self.rfile.read(length)
        if delay:
            time.sleep(delay)
        if injected is not None:
            self._send(injected, {"error": "injected failure"})
            return
        if self.path != "/forecast":
            self._send(404, {"error": f"no such path {self.path}"})
            return
        try:
            response = _stub_forecast(stub.alias, json.loads(body.decode("utf-8")))
        except Exception as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(200, response)


def _stub_forecast(alias: str, data: dict) -> dict:
    started = time.monotonic()
    for field_name in ("id", "freq", "ds", "y", "h"):
        if field_name not in data:
            raise ValueError(f"request lacks required field {field_name!r}")
    timestamps = tuple(parse_timestamp(ts) for ts in data["ds"])
    values = np.asarray(data["y"], dtype=float)
    if len(timestamps) != len(values):
        raise ValueError("ds and y lengths differ")
    freq = Frequency(data["freq"])
    panel = SeriesPanel({data["id"]: Series(timestamps, values)}, freq)
    levels = tuple(float(lv) for lv in data.get("levels") or ()) or None
    frame = get_model(alias).forecast(panel, int(data["h"]), levels)
    entry = frame[data["id"]]
    response = {
        "model": alias,
        "mean": [_round12(v) for v in entry.mean],
        "elapsed_ms": int((time.monotonic() - started) * 1000.0),
    }
    if frame.levels is not None:
        response["quantiles"] = {
            _level_key(level): [_round12(v) for v in entry.quantiles[:, j]]
            for j, level in enumerate(frame.levels)
        }
    return response


class _QuietServer(ThreadingHTTPServer):
    """Tracks the connections it holds open, so close() can end them."""

    daemon_threads = True

    def __init__(self, *args):
        self.connections: set[socket.socket] = set()
        self.connections_lock = threading.Lock()
        super().__init__(*args)

    def process_request(self, request, client_address):
        with self.connections_lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.connections_lock:
            self.connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self.connections_lock:
            held = list(self.connections)
        for request in held:
            try:
                request.shutdown(socket.SHUT_RDWR)  # wakes its handler thread
            except OSError:
                pass

    def handle_error(self, request, client_address):
        pass  # dropped connections are expected in the timeout tests


class StubServer:
    """A running threaded stub mirroring the builtin model ``alias``;
    close() releases the port."""

    def __init__(self, host: str, port: int, alias: str):
        self.alias = alias
        self.lock = threading.Lock()
        self.requests = 0
        self.failures: deque[int] = deque()
        self.delay_s = 0.0
        handler = type("BoundStubHandler", (_StubHandler,), {"stub": self})
        self.server = _QuietServer((host, port), handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        with self.lock:
            return self.requests

    def inject_failures(self, statuses: Sequence[int]) -> None:
        with self.lock:
            self.failures.extend(statuses)

    def set_delay(self, seconds: float) -> None:
        with self.lock:
            self.delay_s = seconds

    def close(self) -> None:
        """Stop serving and end every kept-alive connection."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)


def serve_stub(host: str = "127.0.0.1", port: int = 0, alias: str = "seasonalnaive") -> StubServer:
    """Start a threaded stub mirroring a builtin model; port 0 picks a free one."""
    get_model(alias)  # an unknown alias is an UnknownModelError before the port opens
    return StubServer(host, port, alias)
