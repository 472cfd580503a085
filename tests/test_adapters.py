import http.client
import json
import math
import socket
import struct
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agentcast import _http
from agentcast._http import post_json
from agentcast.adapters import (
    EnsembleForecaster,
    ModelSpec,
    RemoteForecaster,
    _round12,
    parse_model_alias,
    remote_forecast,
    resolve_model,
    serve_stub,
)
from agentcast.evaluation import cross_validate
from agentcast.errors import (
    ConfigError,
    ProtocolError,
    RequestError,
    TransportError,
    UnknownModelError,
)
from agentcast.llm import LLMConfig, llm_chat
from agentcast.models import Forecaster, available_models, get_model

from conftest import (
    TRUNCATED_REPLY,
    RawReplyServer,
    canned_server,
    count_connections,
    json_reply,
    make_panel,
)


@pytest.fixture(scope="module")
def stub():
    server = serve_stub(alias="seasonalnaive")
    yield server
    server.close()


def adapter_spec(url, **overrides):
    return parse_model_alias(f"adapter:{url}", **overrides)


class TestParseModelAlias:
    def test_bare_alias_is_builtin(self):
        spec = parse_model_alias("seasonalnaive")
        assert spec.kind == "builtin"
        assert spec.alias == "seasonalnaive"

    def test_adapter_defaults(self):
        spec = parse_model_alias("adapter:http://localhost:8008")
        assert spec.kind == "adapter"
        assert spec.url == "http://localhost:8008"
        assert spec.timeout == 30.0
        assert spec.max_retries == 2

    def test_ensemble_members_parsed(self):
        spec = parse_model_alias("median_ensemble:naive+theta")
        assert spec.kind == "ensemble"
        assert [m.alias for m in spec.members] == ["naive", "theta"]
        assert all(m.kind == "builtin" for m in spec.members)

    def test_unknown_alias_lists_registry(self):
        with pytest.raises(UnknownModelError) as err:
            parse_model_alias("prophet")
        for alias in available_models():
            assert alias in str(err.value)

    def test_malformed_url_rejected(self):
        with pytest.raises(ConfigError):
            parse_model_alias("adapter:not-a-url")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            parse_model_alias("   ")

    def test_nested_ensemble_rejected(self):
        with pytest.raises(ConfigError):
            parse_model_alias("median_ensemble:naive+median_ensemble:theta+ses")
        with pytest.raises(ConfigError, match="nested"):
            EnsembleForecaster([get_model("naive"), EnsembleForecaster([get_model("ses")])])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout", 0), ("timeout", -1.0), ("max_retries", -1), ("max_retries", 1.5),
            ("backoff_ms", -5.0),
        ],
    )
    def test_bad_retry_policy_is_a_config_error(self, stub, field, value):
        before = stub.request_count
        with pytest.raises(ConfigError, match=field):
            parse_model_alias(f"adapter:{stub.url}", **{field: value})
        assert stub.request_count == before

    # A socket timeout or sleep past threading.TIMEOUT_MAX s overflows
    # time_t at the first request or retry, where it would fail a CV fold.
    @pytest.mark.parametrize(
        "policy",
        [
            dict(timeout=math.inf), dict(timeout=1e300), dict(timeout=1e10), dict(timeout=math.nan),
            dict(backoff_ms=math.inf), dict(backoff_ms=math.nan),
            dict(backoff_ms=1e13, max_retries=1), dict(backoff_ms=1.0, max_retries=2000),
        ],
        ids=["timeout-inf", "timeout-1e300", "timeout-1e10", "timeout-nan", "backoff-inf",
             "backoff-nan", "longest-wait", "longest-wait-overflows"],
    )
    def test_policy_past_the_platforms_longest_wait_is_a_config_error(self, policy):
        field = "timeout" if "timeout" in policy else "backoff_ms"
        with pytest.raises(ConfigError, match=field):
            ModelSpec("remote", url="http://127.0.0.1:9", **policy)

    def test_policy_at_the_platforms_longest_wait_is_accepted(self, stub):
        spec = adapter_spec(stub.url, timeout=threading.TIMEOUT_MAX)
        panel = make_panel({"s": [float(v) for v in range(1, 25)]})
        frame = remote_forecast(spec, panel, 2, levels=None)
        np.testing.assert_array_equal(frame["s"].mean, [13.0, 14.0])  # seasonal naive
        ModelSpec("remote", url=stub.url, backoff_ms=threading.TIMEOUT_MAX * 1000.0, max_retries=1)
        ModelSpec("remote", url=stub.url, backoff_ms=0.0, max_retries=5000)

    def test_resolve_builds_the_right_objects(self, stub):
        assert isinstance(resolve_model("naive"), Forecaster)
        assert isinstance(resolve_model(f"adapter:{stub.url}"), RemoteForecaster)
        ens = resolve_model("median_ensemble:naive+theta")
        assert isinstance(ens, EnsembleForecaster)
        assert ens.name == "median_ensemble[naive+theta]"


class TestStubServer:
    def test_health_endpoint(self, stub):
        with urllib.request.urlopen(f"{stub.url}/health", timeout=5) as resp:
            data = json.loads(resp.read())
        assert data == {"status": "ok", "model": "seasonalnaive"}

    def test_malformed_body_is_a_400(self, stub):
        request = urllib.request.Request(
            f"{stub.url}/forecast", data=b'{"id": "x"}', method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

    def test_non_finite_request_values_are_a_request_error(self, stub):
        y = [float(v) for v in range(1, 25)]
        y[5] = float("nan")
        payload = {
            "id": "s",
            "freq": "M",
            "ds": [f"{2020 + k // 12}-{k % 12 + 1:02d}-01" for k in range(24)],
            "y": y,
            "h": 3,
            "levels": [0.1, 0.9],
        }
        spec = adapter_spec(stub.url, max_retries=2, backoff_ms=1.0)
        before = stub.request_count
        with pytest.raises(RequestError, match="non-finite value nan at position 5"):
            post_json(f"{spec.url}/forecast", payload, spec)
        assert stub.request_count - before == 1

    def test_utc_offset_in_ds_is_a_request_error(self, stub):
        payload = {
            "id": "s",
            "freq": "M",
            "ds": [f"2020-{k + 1:02d}-01T00:00:00+00:00" for k in range(12)],
            "y": [float(v) for v in range(12)],
            "h": 3,
        }
        spec = adapter_spec(stub.url)
        with pytest.raises(RequestError, match="carries a UTC offset") as err:
            post_json(f"{spec.url}/forecast", payload, spec)
        assert err.value.category == "request"

    def test_mirrors_the_builtin_model(self, stub):
        panel = make_panel({"s": [float(v) for v in range(1, 25)]})
        local = get_model("seasonalnaive").forecast(panel, 6)
        remote = remote_forecast(adapter_spec(stub.url), panel, 6)
        entry_l, entry_r = local["s"], remote["s"]
        np.testing.assert_allclose(entry_r.mean, entry_l.mean, atol=1e-9)
        np.testing.assert_allclose(entry_r.quantiles, entry_l.quantiles, atol=1e-9)
        assert entry_r.timestamps == entry_l.timestamps

    @pytest.mark.parametrize("alias", available_models())
    def test_round_trip_identity_for_every_builtin(self, alias):
        server = serve_stub(alias=alias)
        try:
            rng = np.random.default_rng(8)
            values = np.round(50.0 + np.cumsum(rng.normal(0.0, 2.0, 30)), 4)
            panel = make_panel({"a": list(values), "b": [1.0, 0.0, 2.0] * 10})
            levels = None if alias in ("croston", "adida") else (0.1, 0.5, 0.9)
            local = get_model(alias).forecast(panel, 5, levels)
            remote = remote_forecast(adapter_spec(server.url), panel, 5, levels)
            for key in ("a", "b"):
                np.testing.assert_allclose(
                    remote[key].mean, local[key].mean, rtol=0, atol=1e-9
                )
                if levels is not None:
                    np.testing.assert_allclose(
                        remote[key].quantiles, local[key].quantiles, rtol=0, atol=1e-9
                    )
        finally:
            server.close()

    def test_injected_failure_keeps_the_connection_in_step(self):
        server = serve_stub(alias="naive")
        accepted = count_connections(server.server)
        payload = json.dumps(
            {"id": "s", "freq": "M", "ds": ["2020-01-01", "2020-02-01"], "y": [1.0, 2.0], "h": 2}
        )
        conn = http.client.HTTPConnection(*server.server.server_address[:2], timeout=5)
        try:
            server.inject_failures([500])
            replies = []
            for _ in range(2):
                conn.request("POST", "/forecast", payload)
                response = conn.getresponse()
                replies.append((response.status, response.will_close, json.loads(response.read())))
        finally:
            conn.close()
            server.close()
        assert replies[0] == (500, False, {"error": "injected failure"})
        assert replies[1][:2] == (200, False)
        assert replies[1][2]["mean"] == [2.0, 2.0]
        assert len(accepted) == 1

    @pytest.mark.parametrize("length", ["abc", "-1", "-0", "+104", "1_0_4", ""])
    def test_bad_content_length_is_a_400_and_closes(self, stub, length):
        with socket.create_connection(stub.server.server_address[:2], timeout=5) as sock:
            sock.sendall(
                f"POST /forecast HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            reply = sock.makefile("rb").read()  # up to the server's close
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"valid Content-Length" in reply

    def test_close_ends_kept_connections(self):
        server = serve_stub(alias="naive")
        panel = make_panel({"s": [1.0, 2.0, 3.0]})
        spec = adapter_spec(server.url, max_retries=0)
        remote_forecast(spec, panel, 2)  # leaves a kept connection in the client's pool
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 5.0
        with pytest.raises(TransportError):
            remote_forecast(spec, panel, 2)


class TestRetryPolicy:
    def test_5xx_retried_up_to_budget(self, stub):
        panel = make_panel({"s": [float(v) for v in range(1, 25)]})
        spec = adapter_spec(stub.url, max_retries=2, backoff_ms=1.0)
        before = stub.request_count
        stub.inject_failures([500, 502])
        frame = remote_forecast(spec, panel, 3)
        assert frame["s"].mean.shape == (3,)
        assert stub.request_count - before == 3

    def test_transport_error_after_exhausted_retries(self, stub):
        panel = make_panel({"s": [float(v) for v in range(1, 25)]})
        spec = adapter_spec(stub.url, max_retries=1, backoff_ms=1.0)
        before = stub.request_count
        stub.inject_failures([500, 500])
        with pytest.raises(TransportError):
            remote_forecast(spec, panel, 3)
        assert stub.request_count - before == 2

    def test_4xx_never_retried(self, stub):
        panel = make_panel({"s": [float(v) for v in range(1, 25)]})
        spec = adapter_spec(stub.url, max_retries=3, backoff_ms=1.0)
        before = stub.request_count
        stub.inject_failures([422])
        with pytest.raises(RequestError):
            remote_forecast(spec, panel, 3)
        assert stub.request_count - before == 1

    def test_timeout_is_a_transport_error(self):
        server = serve_stub(alias="naive")
        try:
            server.set_delay(1.0)
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            spec = adapter_spec(server.url, timeout=0.2, max_retries=0)
            with pytest.raises(TransportError):
                remote_forecast(spec, panel, 2)
        finally:
            server.close()


class TestProtocolValidation:
    def test_short_mean_is_a_protocol_error(self):
        payload = {"model": "liar", "mean": [1.0, 2.0], "elapsed_ms": 1}
        with canned_server(payload) as url:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            with pytest.raises(ProtocolError) as err:
                remote_forecast(adapter_spec(url), panel, 3, levels=None)
            assert "3" in str(err.value) and "2" in str(err.value)

    def test_fixed_payload_round_trip(self):
        payload = {
            "model": "fixed",
            "mean": [5.0, 6.0],
            "quantiles": {"0.1": [4.0, 5.0], "0.9": [6.0, 7.0]},
            "elapsed_ms": 2,
        }
        with canned_server(payload) as url:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            frame = remote_forecast(adapter_spec(url), panel, 2, levels=(0.1, 0.9))
            np.testing.assert_array_equal(frame["s"].mean, [5.0, 6.0])
            np.testing.assert_array_equal(frame["s"].quantiles, [[4.0, 6.0], [5.0, 7.0]])

    def test_missing_level_is_a_protocol_error(self):
        payload = {
            "model": "fixed",
            "mean": [5.0, 6.0],
            "quantiles": {"0.1": [4.0, 5.0]},
            "elapsed_ms": 2,
        }
        with canned_server(payload) as url:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            with pytest.raises(ProtocolError):
                remote_forecast(adapter_spec(url), panel, 2, levels=(0.1, 0.9))

    @pytest.mark.parametrize("levels", [(), (0.9, 0.1), (0.0, 0.5), (0.5, 1.5)])
    def test_invalid_levels_rejected_before_any_request(self, levels):
        server = serve_stub(alias="naive")
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            with pytest.raises(ValueError):
                remote_forecast(adapter_spec(server.url), panel, 2, levels)
            assert server.request_count == 0
        finally:
            server.close()

    def test_unknown_stub_alias_rejected(self):
        with pytest.raises(UnknownModelError):
            serve_stub(alias="nope")


class TestSharedClientPolicy:
    """The adapter runs the one retrying client (``agentcast._http``)."""

    def test_429_is_retried(self, stub):
        panel = make_panel({"s": [float(v) for v in range(1, 25)]})
        spec = adapter_spec(stub.url, max_retries=2, backoff_ms=1.0)
        before = stub.request_count
        stub.inject_failures([429])
        frame = remote_forecast(spec, panel, 3)
        assert frame["s"].mean.shape == (3,)
        assert stub.request_count - before == 2

    def test_request_error_carries_the_raw_body(self, stub):
        panel = make_panel({"s": [float(v) for v in range(1, 25)]})
        stub.inject_failures([422])
        with pytest.raises(RequestError, match=r'HTTP 422\): \{"error": "injected failure"\}'):
            remote_forecast(adapter_spec(stub.url), panel, 3)

    def test_truncated_reply_is_retried_then_a_transport_error(self):
        server = RawReplyServer(TRUNCATED_REPLY)
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            spec = adapter_spec(server.url, max_retries=1, backoff_ms=1.0)
            with pytest.raises(TransportError, match="IncompleteRead") as err:
                remote_forecast(spec, panel, 2)
            assert server.url in str(err.value)
            assert server.requests == 2
        finally:
            server.close()

    def test_truncated_reply_fails_the_fold_not_the_run(self):
        server = RawReplyServer(TRUNCATED_REPLY)
        try:
            panel = make_panel({"s": [float(v) for v in range(1, 25)]})
            remote = RemoteForecaster(adapter_spec(server.url, max_retries=1, backoff_ms=1.0))
            cv = cross_validate(panel, [remote, "naive"], 3, n_windows=2)
            assert cv.failed.shape[0] == 2
            assert cv.failed[0].all() and not cv.failed[1].any()
            assert server.requests == 4
        finally:
            server.close()

    def test_non_json_body_is_a_protocol_error(self):
        server = RawReplyServer(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!")
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            spec = adapter_spec(server.url, max_retries=2, backoff_ms=1.0)
            with pytest.raises(ProtocolError, match="not JSON"):
                remote_forecast(spec, panel, 2, levels=None)
            assert server.requests == 1
        finally:
            server.close()


def finite_reply(mean=(1.0, 2.0), q90=(1.5, 2.5)):
    quantiles = {"0.1": [0.5, 1.5], "0.9": list(q90)}
    return {"model": "x", "mean": list(mean), "quantiles": quantiles, "elapsed_ms": 1}


class TestResponseValues:
    @pytest.mark.parametrize(
        "payload, field",
        [
            (finite_reply(mean=(1.0, float("nan"))), "mean values"),
            (finite_reply(q90=(1.5, float("inf"))), "values at level 0.9"),
        ],
        ids=["nan-mean", "infinite-quantile"],
    )
    def test_rejected_at_the_boundary(self, payload, field):
        with canned_server(payload) as url:
            panel = make_panel({"s": [float(v) for v in range(1, 25)]})
            spec = adapter_spec(url, backoff_ms=1.0)
            with pytest.raises(ProtocolError, match=f"{field} for 's' are not all finite"):
                remote_forecast(spec, panel, 2, levels=(0.1, 0.9))
            cv = cross_validate(panel, [RemoteForecaster(spec)], 2, levels=(0.1, 0.9))
            assert cv.failed.all()

    @pytest.mark.parametrize("mean", [["x", 2.0], [[1.0], [2.0]]], ids=["text", "nested"])
    def test_non_numeric_value_is_a_protocol_error(self, mean):
        with canned_server(finite_reply(mean=mean)) as url:
            panel = make_panel({"s": [float(v) for v in range(1, 25)]})
            with pytest.raises(ProtocolError, match="not a number"):
                remote_forecast(adapter_spec(url), panel, 2, levels=(0.1, 0.9))


ROUNDING_CELLS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308, float("nan"), float("inf"), -float("inf"),
    0.1 + 0.2, 1.0 / 3.0, 123456789.12345678, -9007199254740993.0, 2.718281828459045,
]


class TestRound12:
    """The payload and stub rounding through one template, against the
    per-value ``float(f"{x:.12g}")`` it replaced."""

    @given(st.lists(st.floats(), max_size=130))
    @example(ROUNDING_CELLS)
    def test_matches_per_value_rounding_bit_for_bit(self, values):
        got = _round12(np.array(values, dtype=float))
        want = [float(f"{x:.12g}") for x in values]
        assert all(type(v) is float for v in got)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]
        assert json.dumps(got) == json.dumps(want)


def no_sleep(seconds):
    raise AssertionError(f"backoff sleep of {seconds} s")


class TestConnectionPool:
    """The default transport keeps one HTTP/1.1 connection per request in flight."""

    def test_sequential_forecasts_share_one_connection(self):
        server = serve_stub(alias="seasonalnaive")
        accepted = count_connections(server.server)
        try:
            panel = make_panel({"s": [float(v) for v in range(1, 25)]})
            spec = adapter_spec(server.url)
            for _ in range(20):
                remote_forecast(spec, panel, 3)
            assert server.request_count == 20
            # Nagle's algorithm would hold each reply's body back for the
            # client's delayed ACK.
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            server.close()
        assert len(accepted) == 1

    def test_cv_at_two_jobs_opens_at_most_two_connections(self):
        server = serve_stub(alias="seasonalnaive")
        accepted = count_connections(server.server)
        try:
            panel = make_panel({f"s{i}": [float(v + i) for v in range(1, 25)] for i in range(8)})
            remote = RemoteForecaster(adapter_spec(server.url))
            cv = cross_validate(panel, [remote], 3, n_windows=3, n_jobs=2)
            assert not cv.failed.any()
            assert server.request_count == 24
        finally:
            server.close()
        assert 1 <= len(accepted) <= 2

    def test_threads_never_share_a_connection(self):
        server = serve_stub(alias="naive")
        accepted = count_connections(server.server)
        spec = adapter_spec(server.url, max_retries=0)
        results, errors = {}, []

        def worker(i):
            try:
                for j in range(10):
                    last = float(100 * i + j)  # naive forecasts the last value
                    frame = remote_forecast(spec, make_panel({"s": [1.0, last]}), 1, levels=None)
                    results[i, j] = float(frame["s"].mean[0])
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == {(i, j): float(100 * i + j) for i in range(4) for j in range(10)}
        assert 1 <= len(accepted) <= 4

    def test_stale_connection_is_resent_once_without_a_retry(self, monkeypatch):
        # The server closes every connection after one reply that does not
        # say so, so the second request first meets a stale connection.
        server = RawReplyServer(json_reply({"model": "x", "mean": [1.0, 2.0], "elapsed_ms": 1}))
        monkeypatch.setattr("agentcast._http.time.sleep", no_sleep)
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            spec = adapter_spec(server.url, max_retries=0)
            for _ in range(2):
                frame = remote_forecast(spec, panel, 2, levels=None)
                np.testing.assert_array_equal(frame["s"].mean, [1.0, 2.0])
            assert server.requests == 2
        finally:
            server.close()

    def test_timed_out_request_leaves_no_late_reply(self):
        server = serve_stub(alias="naive")
        try:
            server.set_delay(0.3)
            with pytest.raises(TransportError, match="timed out"):
                remote_forecast(
                    adapter_spec(server.url, timeout=0.1, max_retries=0),
                    make_panel({"s": [1.0, 2.0, 3.0]}), 2,
                )
            server.set_delay(0.0)
            time.sleep(0.3)  # the late reply has gone out by now
            frame = remote_forecast(
                adapter_spec(server.url, max_retries=0), make_panel({"s": [7.0, 8.0, 9.0]}), 2
            )
            np.testing.assert_array_equal(frame["s"].mean, [9.0, 9.0])
        finally:
            server.close()

    def test_kept_connection_takes_each_requests_timeout(self):
        # Specs with a 30 s and a 0.1 s timeout share one host, so a kept
        # connection goes back and forth between them.
        server = serve_stub(alias="naive")
        accepted = count_connections(server.server)
        slow, fast = (adapter_spec(server.url, timeout=t, max_retries=0) for t in (30.0, 0.1))

        def forecast(spec, last):  # naive forecasts the last value
            frame = remote_forecast(spec, make_panel({"s": [1.0, last]}), 1, levels=None)
            return float(frame["s"].mean[0])

        try:
            assert forecast(slow, 1.0) == 1.0  # leaves a kept connection
            assert forecast(fast, 2.0) == 2.0
            server.set_delay(0.3)
            assert forecast(slow, 3.0) == 3.0  # back to 30 s on the same connection
            with pytest.raises(TransportError, match="timed out"):
                forecast(fast, 4.0)
            assert forecast(slow, 5.0) == 5.0  # its own reply, not the late one
        finally:
            server.close()
        assert len(accepted) == 2  # the timed-out connection was closed

    def test_proxied_url_goes_through_urllib(self, monkeypatch):
        proxy = RawReplyServer(json_reply({"model": "x", "mean": [1.0, 2.0], "elapsed_ms": 1}))
        for name in ("HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", proxy.url)
        target = "http://127.0.0.2:9"  # nothing listens there: a direct request is refused
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            frame = remote_forecast(adapter_spec(target, max_retries=0), panel, 2, levels=None)
            np.testing.assert_array_equal(frame["s"].mean, [1.0, 2.0])
        finally:
            proxy.close()
        assert proxy.request_lines == [f"POST {target}/forecast HTTP/1.1"]

    def test_pool_sends_urllibs_user_agent(self):
        # The pooled transport names the client as urllib does, without
        # importing urllib.request to ask it.
        assert _http._USER_AGENT == "Python-urllib/" + urllib.request.__version__

    def test_no_proxy_host_uses_the_pool(self, monkeypatch):
        proxy = RawReplyServer(json_reply({"model": "x", "mean": [1.0, 2.0], "elapsed_ms": 1}))
        server = serve_stub(host="127.0.0.3", alias="naive")
        monkeypatch.delenv("HTTP_PROXY", raising=False)
        monkeypatch.setenv("http_proxy", proxy.url)
        monkeypatch.setenv("no_proxy", "127.0.0.3")
        monkeypatch.delenv("NO_PROXY", raising=False)
        try:
            frame = remote_forecast(
                adapter_spec(server.url, max_retries=0), make_panel({"s": [1.0, 2.0, 3.0]}), 2
            )
            np.testing.assert_array_equal(frame["s"].mean, [3.0, 3.0])
            assert server.request_count == 1
        finally:
            server.close()
            proxy.close()
        assert proxy.requests == 0


def record_client_writes(monkeypatch, port):
    """The sizes of the socket writes made from now on on connections to
    ``port``, as the client sends them."""
    writes = []
    for name in ("send", "sendall"):
        real = getattr(socket.socket, name)

        def recording(sock, data, *args, _real=real):
            if sock.getpeername()[1] == port:
                writes.append(len(data))
            return _real(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, recording)
    return writes


def send_stock_request(url, body, headers):
    """POST ``body`` to ``url`` through stock ``http.client`` on a
    connection of its own."""
    server_url, _, path = url.partition("//")[2].partition("/")
    conn = http.client.HTTPConnection(server_url, timeout=5)
    try:
        conn.request("POST", "/" + path, body, headers)
        conn.getresponse().read()
    finally:
        conn.close()


class TestOneWritePerRequest:
    """The pooled transport sends a request's header block and body in one
    socket write, with the bytes stock ``http.client`` sends in two."""

    def test_one_write_on_a_fresh_and_on_a_reused_connection(self, monkeypatch):
        server = serve_stub(alias="naive")
        accepted = count_connections(server.server)
        writes = record_client_writes(monkeypatch, server.server.server_address[1])
        spec = adapter_spec(server.url, max_retries=0)
        try:
            for last in (3.0, 4.0):
                frame = remote_forecast(spec, make_panel({"s": [1.0, last]}), 2, levels=None)
                np.testing.assert_array_equal(frame["s"].mean, [last, last])
        finally:
            server.close()
        assert len(accepted) == 1  # the second request went on the kept connection
        assert len(writes) == 2

    @pytest.mark.parametrize("extra", [{}, {"Authorization": "Bearer sk-test", "X-Trace": "1"}],
                             ids=["adapter", "extra-headers"])
    def test_wire_bytes_equal_stock_http_client(self, extra):
        payload = {"id": "s", "freq": "M", "ds": ["2020-01-01"], "y": [1.5], "h": 2}
        server = RawReplyServer(json_reply({"ok": True}))
        url = f"{server.url}/forecast?v=1"
        try:
            assert post_json(url, payload, adapter_spec(server.url), dict(extra)) == {"ok": True}
            headers = {"User-Agent": _http._USER_AGENT, "Content-Type": "application/json", **extra}
            send_stock_request(url, json.dumps(payload).encode(), headers)
        finally:
            server.close()
        sent, stock = server.request_bytes
        assert sent == stock
        assert sent.startswith(b"POST /forecast?v=1 HTTP/1.1\r\nHost: 127.0.0.1:")
        assert sent.endswith(b"\r\n\r\n" + json.dumps(payload).encode())

    def test_llm_call_is_one_write_with_its_credential(self, monkeypatch):
        monkeypatch.setenv("AGENTCAST_TEST_KEY", "sk-test")
        completion = {"choices": [{"message": {"content": "ok"}}]}
        server = RawReplyServer(json_reply(completion))
        writes = record_client_writes(monkeypatch, server.server.server_address[1])
        config = LLMConfig("acme:m1", endpoint=server.url, credential_var="AGENTCAST_TEST_KEY")
        try:
            assert llm_chat(config, "be brief", "hi") == "ok"
            assert len(writes) == 1
            payload = {"model": "m1", "temperature": 0.0, "messages": [
                {"role": "system", "content": "be brief"}, {"role": "user", "content": "hi"}]}
            headers = {"User-Agent": _http._USER_AGENT, "Content-Type": "application/json",
                       "Authorization": "Bearer sk-test"}
            send_stock_request(
                f"{server.url}/chat/completions", json.dumps(payload).encode(), headers
            )
        finally:
            server.close()
        sent, stock = server.request_bytes
        assert sent == stock
        assert writes[0] == len(sent)
        assert b"\r\nAuthorization: Bearer sk-test\r\n" in sent

    @pytest.mark.parametrize("value", ["a\r\nX-Injected: 1", "a\nb", "a\rb"],
                             ids=["crlf", "lf", "cr"])
    def test_header_holding_a_line_break_is_refused_before_sending(self, value):
        server = RawReplyServer(json_reply({"ok": True}))
        accepted = count_connections(server.server)
        try:
            with pytest.raises(ValueError, match="Invalid header value"):
                _http.pooled_transport(f"{server.url}/forecast", b"{}", {"X-Note": value}, 5.0)
        finally:
            server.close()
        assert (accepted, server.requests) == ([], 0)
