"""The stub's request path: its replies against the ``Forecaster.forecast``
path it answered through before, the JSON number checks on both sides of
the wire, and what one request costs (frames built, writes sent)."""

import http.client
import json
import socket
import struct
import time
from collections import Counter
from datetime import datetime

import numpy as np
import pytest

import agentcast.models.base as base
from agentcast._http import post_json
from agentcast.adapters import _stub_forecast, parse_model_alias, remote_forecast, serve_stub
from agentcast.errors import ProtocolError, RequestError
from agentcast.models import MODEL_REGISTRY, get_model
from agentcast.panel import (
    DEFAULT_LEVELS,
    ForecastFrame,
    Frequency,
    Series,
    SeriesPanel,
    format_timestamp,
    future_grid,
    parse_timestamp,
)

from conftest import canned_server, make_panel


@pytest.fixture(scope="module")
def stub():
    server = serve_stub(alias="naive")
    yield server
    server.close()


def forecast_path_reply(alias, data):
    """The reply as the stub built it through ``Forecaster.forecast`` on a
    one-series panel, less ``elapsed_ms``, each value rounded on its own."""
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
    response = {"model": alias, "mean": [float(f"{x:.12g}") for x in entry.mean]}
    if frame.levels is not None:
        response["quantiles"] = {
            f"{level:g}": [float(f"{x:.12g}") for x in entry.quantiles[:, j]]
            for j, level in enumerate(frame.levels)
        }
    return response


def finite_reply(mean=(1.0, 2.0), q90=(1.5, 2.5)):
    quantiles = {"0.1": [0.5, 1.5], "0.9": list(q90)}
    return {"model": "x", "mean": list(mean), "quantiles": quantiles, "elapsed_ms": 1}


def stub_reply(alias, data):
    reply = _stub_forecast(alias, data)
    assert type(reply.pop("elapsed_ms")) is int
    return reply


def request(anchor, unit, values, h=4, levels=DEFAULT_LEVELS, key="s"):
    stamps = [anchor] + (future_grid(anchor, Frequency(unit), len(values) - 1) if values[1:] else [])
    return {
        "id": key,
        "freq": unit,
        "ds": [format_timestamp(t) for t in stamps],
        "y": [float(v) for v in values],
        "h": h,
        "levels": list(levels or ()),
    }


# Month-end and leap-day anchors clamp on the calendar grids.
ANCHORS = {
    "M": datetime(2019, 1, 31),
    "Q": datetime(2019, 11, 30),
    "D": datetime(2020, 2, 27),
    "H": datetime(2020, 2, 29, 22),
}


def series_values():
    rng = np.random.default_rng(29)
    trended = np.round(40.0 + np.cumsum(rng.normal(0.5, 2.0, 40)) + 6 * np.sin(np.arange(40)), 4)
    intermittent = [0.0, 0.0, 3.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0] * 4
    return {"one": [7.25], "two": [3.0, 5.5], "trended": list(trended), "sparse": intermittent}


class TestStubReplyOracle:
    """Every builtin's reply, through the per-series step with one rounding
    pass, has the bytes the full ``forecast`` path gave."""

    @pytest.mark.parametrize("alias", list(MODEL_REGISTRY))
    @pytest.mark.parametrize("levels", [None, DEFAULT_LEVELS], ids=["no-levels", "default-levels"])
    def test_reply_equals_the_forecast_path(self, alias, levels):
        for unit, anchor in ANCHORS.items():
            for name, values in series_values().items():
                data = request(anchor, unit, values, h=5, levels=levels)
                try:
                    want = forecast_path_reply(alias, data)
                except Exception as exc:
                    with pytest.raises(type(exc)) as err:
                        stub_reply(alias, data)
                    assert str(err.value) == str(exc), (unit, name)
                    continue
                got = stub_reply(alias, data)
                assert json.dumps(got) == json.dumps(want), (unit, name)

    # Requests both paths reject, each with the text of its 400 reply.
    REJECTED = {
        "missing-h": lambda d: d.pop("h"),
        "bad-timestamp": lambda d: d["ds"].__setitem__(2, "2020-13-01"),
        "utc-offset": lambda d: d["ds"].__setitem__(0, "2019-01-31T00:00:00+00:00"),
        "length": lambda d: d["y"].pop(),
        "freq": lambda d: d.update(freq="X"),
        "empty-id": lambda d: d.update(id=""),
        "nan-value": lambda d: d["y"].__setitem__(3, float("nan")),
        "decreasing": lambda d: d["ds"].reverse(),
        "off-grid": lambda d: d["ds"].__setitem__(4, "2019-05-30"),
        "h-zero": lambda d: d.update(h=0),
        "levels-order": lambda d: d.update(levels=[0.9, 0.1]),
        "levels-zero": lambda d: d.update(levels=[0.0, 0.5]),
        "levels-above-one": lambda d: d.update(levels=[1.5]),
    }

    def bad_requests(self):
        for name, spoil in self.REJECTED.items():
            data = request(ANCHORS["M"], "M", series_values()["trended"][:12])
            spoil(data)
            yield name, data

    def test_rejections_keep_their_text(self):
        for name, data in self.bad_requests():
            with pytest.raises(Exception) as want:
                forecast_path_reply("seasonalnaive", json.loads(json.dumps(data)))
            with pytest.raises(type(want.value)) as got:
                stub_reply("seasonalnaive", data)
            assert str(got.value) == str(want.value), name

    def test_rejections_are_400_replies_on_one_connection(self):
        server = serve_stub(alias="seasonalnaive")
        conn = http.client.HTTPConnection(*server.server.server_address[:2], timeout=5)
        try:
            for name, data in self.bad_requests():
                with pytest.raises(Exception) as want:
                    forecast_path_reply("seasonalnaive", json.loads(json.dumps(data)))
                conn.request("POST", "/forecast", json.dumps(data))
                response = conn.getresponse()
                assert (response.status, response.will_close) == (400, False), name
                assert json.loads(response.read()) == {"error": str(want.value)}, name
        finally:
            conn.close()
            server.close()


class TestWireNumbers:
    """A number on the wire is a JSON number: the stub answers any other
    value with a 400 naming the field, the client with a ProtocolError."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("h", 2.7, "field 'h' must be an integer, got 2.7"),
            ("h", True, "field 'h' must be an integer, got True"),
            ("h", "3", "field 'h' must be an integer, got '3'"),
            ("y", ["1.5", "2.5", "3.5"], "field 'y' holds '1.5' at position 0, not a number"),
            ("y", [1.5, True, 3.5], "field 'y' holds True at position 1, not a number"),
            ("y", 3.5, "field 'y' must be a list of numbers"),
            ("levels", ["0.5"], "field 'levels' holds '0.5' at position 0, not a number"),
            ("levels", 0.5, "field 'levels' must be a list of numbers"),
            ("levels", 0, "field 'levels' must be a list of numbers"),
            ("levels", False, "field 'levels' must be a list of numbers"),
            ("levels", "", "field 'levels' must be a list of numbers"),
            ("levels", {}, "field 'levels' must be a list of numbers"),
        ],
        ids=["h-float", "h-bool", "h-text", "y-text", "y-bool", "y-scalar", "lv-text", "lv-scalar",
             "lv-zero", "lv-false", "lv-empty-text", "lv-empty-object"],
    )
    def test_stub_rejects_with_a_400_naming_the_field(self, stub, field, value, message):
        data = request(ANCHORS["M"], "M", [1.5, 2.5, 3.5], h=3, levels=(0.1, 0.9))
        data[field] = value
        before = stub.request_count
        with pytest.raises(RequestError) as err:
            post_json(f"{stub.url}/forecast", data, parse_model_alias(f"adapter:{stub.url}"))
        assert f'HTTP 400): {json.dumps({"error": message})}' in str(err.value)
        assert stub.request_count - before == 1  # a 400 is not retried

    @pytest.mark.parametrize("levels", [None, []], ids=["null", "empty"])
    def test_null_or_empty_levels_ask_for_no_quantiles(self, levels):
        data = {"id": "s", "freq": "M", "ds": ["2020-01-01", "2020-02-01"], "y": [1.0, 2.0],
                "h": 2, "levels": levels}
        assert stub_reply("naive", data) == {"model": "naive", "mean": [2.0, 2.0]}

    def test_integral_numbers_are_accepted(self):
        data = {"id": "s", "freq": "M", "ds": ["2020-01-01", "2020-02-01"], "y": [1, 2], "h": 2}
        assert stub_reply("naive", data) == {"model": "naive", "mean": [2.0, 2.0]}

    @pytest.mark.parametrize(
        "payload, message",
        [
            (finite_reply(mean=("1.5", 2.0)), "the mean values for 's' hold a value that is not a"),
            (finite_reply(mean=(True, 2.0)), "the mean values for 's' hold a value that is not a"),
            (finite_reply(q90=(1.5, "2.5")), "the values at level 0.9 for 's' hold a value that"),
            (finite_reply(mean=(10**400, 2.0)), "the values for 's' hold a number too large"),
        ],
        ids=["mean-text", "mean-bool", "quantile-text", "huge-int"],
    )
    def test_client_rejects_with_a_protocol_error(self, payload, message):
        with canned_server(payload) as url:
            panel = make_panel({"s": [float(v) for v in range(1, 25)]})
            with pytest.raises(ProtocolError, match=message):
                remote_forecast(parse_model_alias(f"adapter:{url}"), panel, 2, levels=(0.1, 0.9))


def record_stub_writes(monkeypatch, server):
    """The sizes of the socket writes the stub's side of each connection
    makes from now on."""
    port, writes = server.server.server_address[1], []
    for name in ("send", "sendall"):
        real = getattr(socket.socket, name)

        def recording(sock, data, *args, _real=real):
            if sock.getsockname()[1] == port:
                writes.append(len(data))
            return _real(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, recording)
    return writes


class TestStubRequestBudget:
    """Counts, not times: one stub request builds no future grid and no
    ``ForecastFrame``, and each reply leaves in one write."""

    def test_one_request_builds_no_frame_and_replies_in_one_write(self, monkeypatch):
        calls = Counter()
        real_grid, real_init = base.future_grid, ForecastFrame.__init__

        def counting_grid(*args):
            calls["future_grid"] += 1
            return real_grid(*args)

        def counting_init(self, *args, **kwargs):
            calls["ForecastFrame"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(base, "future_grid", counting_grid)
        monkeypatch.setattr(ForecastFrame, "__init__", counting_init)
        server = serve_stub(alias="seasonalnaive")
        writes = record_stub_writes(monkeypatch, server)
        conn = http.client.HTTPConnection(*server.server.server_address[:2], timeout=5)
        good = request(ANCHORS["M"], "M", series_values()["trended"], h=12)
        bad = dict(good, h=0)
        try:
            replies = []
            for data in (good, bad):
                conn.request("POST", "/forecast", json.dumps(data))
                response = conn.getresponse()
                body = response.read()
                replies.append((response.status, len(body)))
            conn.request("GET", "/health")
            conn.getresponse().read()
        finally:
            conn.close()
            server.close()
        assert [status for status, _ in replies] == [200, 400]
        assert len(writes) == 3  # headers and body together, per reply
        assert all(size > body for size, (_, body) in zip(writes, replies))
        assert calls == Counter()

    def test_expect_100_continue_is_answered_before_the_body(self, stub):
        # The buffered reply must not hold back the interim line the client
        # waits for before it sends its body.
        body = json.dumps(request(ANCHORS["M"], "M", [1.0, 2.0, 3.0], levels=None)).encode()
        head = b"POST /forecast HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
        with socket.create_connection(stub.server.server_address[:2], timeout=5) as sock:
            sock.sendall(head + b"Content-Length: %d\r\n\r\n" % len(body))
            with sock.makefile("rb") as reader:
                assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert reader.readline() == b"\r\n"
                sock.sendall(body)
                assert reader.readline().startswith(b"HTTP/1.1 200 ")
                lines = iter(reader.readline, b"\r\n")
                headers = dict(line.rstrip(b"\r\n").split(b": ", 1) for line in lines)
                reply = json.loads(reader.read(int(headers[b"Content-Length"])))
        assert reply["mean"] == [3.0] * 4

    def test_client_gone_before_the_reply_leaves_the_stub_serving(self, capfd):
        server = serve_stub(alias="naive")
        server.set_delay(0.05)  # the client's reset arrives before the reply
        body = json.dumps(request(ANCHORS["M"], "M", [1.0, 2.0, 3.0])).encode()
        head = b"POST /forecast HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
        try:
            sock = socket.create_connection(server.server.server_address[:2], timeout=5)
            sock.sendall(head + body)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a reset, so the stub's write fails
            time.sleep(0.2)
            server.set_delay(0.0)
            spec = parse_model_alias(f"adapter:{server.url}", max_retries=0)
            frame = remote_forecast(spec, make_panel({"s": [4.0, 5.0, 6.0]}), 2, levels=None)
            np.testing.assert_array_equal(frame["s"].mean, [6.0, 6.0])
            assert server.request_count == 2
            with server.server.connections_lock:
                assert len(server.server.connections) == 1  # the reset one has ended
        finally:
            server.close()
        assert capfd.readouterr().err == ""
