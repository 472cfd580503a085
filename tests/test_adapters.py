import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from agentcast._http import post_json
from agentcast.adapters import (
    EnsembleForecaster,
    ModelSpec,
    RemoteForecaster,
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
from agentcast.models import Forecaster, available_models, get_model

from conftest import TRUNCATED_REPLY, RawReplyServer, make_panel


@pytest.fixture(scope="module")
def stub():
    server = serve_stub(alias="seasonalnaive")
    yield server
    server.close()


def adapter_spec(url, **overrides):
    return parse_model_alias(f"adapter:{url}", **overrides)


def canned_server(payload, status=200):
    """Server that answers every POST with a fixed JSON payload."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


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
        server, url = canned_server(payload)
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            with pytest.raises(ProtocolError) as err:
                remote_forecast(adapter_spec(url), panel, 3, levels=None)
            assert "3" in str(err.value) and "2" in str(err.value)
        finally:
            server.shutdown()

    def test_fixed_payload_round_trip(self):
        payload = {
            "model": "fixed",
            "mean": [5.0, 6.0],
            "quantiles": {"0.1": [4.0, 5.0], "0.9": [6.0, 7.0]},
            "elapsed_ms": 2,
        }
        server, url = canned_server(payload)
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            frame = remote_forecast(adapter_spec(url), panel, 2, levels=(0.1, 0.9))
            np.testing.assert_array_equal(frame["s"].mean, [5.0, 6.0])
            np.testing.assert_array_equal(frame["s"].quantiles, [[4.0, 6.0], [5.0, 7.0]])
        finally:
            server.shutdown()

    def test_missing_level_is_a_protocol_error(self):
        payload = {
            "model": "fixed",
            "mean": [5.0, 6.0],
            "quantiles": {"0.1": [4.0, 5.0]},
            "elapsed_ms": 2,
        }
        server, url = canned_server(payload)
        try:
            panel = make_panel({"s": [1.0, 2.0, 3.0]})
            with pytest.raises(ProtocolError):
                remote_forecast(adapter_spec(url), panel, 2, levels=(0.1, 0.9))
        finally:
            server.shutdown()

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
        server, url = canned_server(payload)
        try:
            panel = make_panel({"s": [float(v) for v in range(1, 25)]})
            spec = adapter_spec(url, backoff_ms=1.0)
            with pytest.raises(ProtocolError, match=f"{field} for 's' are not all finite"):
                remote_forecast(spec, panel, 2, levels=(0.1, 0.9))
            cv = cross_validate(panel, [RemoteForecaster(spec)], 2, levels=(0.1, 0.9))
            assert cv.failed.all()
        finally:
            server.shutdown()

    @pytest.mark.parametrize("mean", [["x", 2.0], [[1.0], [2.0]]], ids=["text", "nested"])
    def test_non_numeric_value_is_a_protocol_error(self, mean):
        server, url = canned_server(finite_reply(mean=mean))
        try:
            panel = make_panel({"s": [float(v) for v in range(1, 25)]})
            with pytest.raises(ProtocolError, match="not a number"):
                remote_forecast(adapter_spec(url), panel, 2, levels=(0.1, 0.9))
        finally:
            server.shutdown()
