import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from agentcast.errors import ConfigError, ProtocolError, RequestError, TransportError
from agentcast.llm import LLMConfig, ToolCall, ToolSpec, llm_chat

from conftest import TRUNCATED_REPLY, RawReplyServer, count_connections


def completion(text):
    return {"choices": [{"message": {"content": text}}]}


def tool_completion(name, arguments):
    if not isinstance(arguments, str):
        arguments = json.dumps(arguments)
    call = {"function": {"name": name, "arguments": arguments}}
    return {"choices": [{"message": {"tool_calls": [call]}}]}


class StubTransport:
    """Scripted transport: each entry is (status, payload) or an exception."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def __call__(self, url, body, headers, timeout):
        self.calls.append((url, json.loads(body), dict(headers)))
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        status, payload = reply
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        return status, data


def fast_config(**overrides):
    defaults = dict(spec="openai:gpt-4o", backoff_ms=0.1)
    defaults.update(overrides)
    return LLMConfig(**defaults)


PROMPT = ("be brief", "hi")  # the system and user message


PROPOSE_TOOL = ToolSpec(
    name="propose_models",
    description="propose candidates",
    parameters={"type": "object", "properties": {"candidates": {"type": "array"}}},
)


@pytest.fixture(autouse=True)
def credential(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")


class TestLLMConfig:
    def test_openai_defaults(self):
        config = LLMConfig("openai:gpt-4o")
        assert config.endpoint == "https://api.openai.com/v1"
        assert config.credential_var == "OPENAI_API_KEY"
        assert config.model == "gpt-4o"

    def test_unknown_provider_needs_endpoint(self):
        with pytest.raises(ConfigError):
            LLMConfig("groq:llama3")

    def test_unknown_provider_with_explicit_settings(self):
        config = LLMConfig(
            "groq:llama3", endpoint="https://api.groq.dev/v1/", credential_var="GROQ_KEY"
        )
        assert config.endpoint == "https://api.groq.dev/v1"
        assert config.credential_var == "GROQ_KEY"

    @pytest.mark.parametrize("spec", ["gpt-4o", "a:b:c", ":model", "provider:", ""])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ConfigError):
            LLMConfig(spec)


class TestChatTypes:
    def test_tool_payload_shape(self):
        payload = PROPOSE_TOOL.to_payload()
        assert payload["type"] == "function"
        assert payload["function"]["name"] == "propose_models"
        assert "parameters" in payload["function"]


class TestLlmChat:
    def test_echo_completion(self):
        transport = StubTransport([(200, completion("hello"))])
        reply = llm_chat(fast_config(), *PROMPT, transport=transport)
        assert reply == "hello"
        url, payload, headers = transport.calls[0]
        assert url == "https://api.openai.com/v1/chat/completions"
        assert payload["model"] == "gpt-4o"
        assert payload["temperature"] == 0.0
        assert payload["messages"] == [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": "hi"},
        ]
        assert headers["Authorization"] == "Bearer sk-test"
        assert "tools" not in payload

    def test_tools_are_declared_in_the_request(self):
        transport = StubTransport([(200, completion("ok"))])
        llm_chat(fast_config(), *PROMPT, (PROPOSE_TOOL,), transport)
        payload = transport.calls[0][1]
        assert payload["tools"][0]["function"]["name"] == "propose_models"

    def test_tool_call_parsed(self):
        reply = tool_completion("propose_models", {"candidates": ["naive", "theta"]})
        transport = StubTransport([(200, reply)])
        result = llm_chat(fast_config(), *PROMPT, (PROPOSE_TOOL,), transport)
        assert isinstance(result, ToolCall)
        assert result.name == "propose_models"
        assert result.arguments == {"candidates": ["naive", "theta"]}

    def test_429_twice_then_success(self):
        transport = StubTransport(
            [(429, {"error": "slow down"}), (429, {"error": "slow down"}), (200, completion("done"))]
        )
        reply = llm_chat(fast_config(max_retries=2), *PROMPT, transport=transport)
        assert reply == "done"
        assert len(transport.calls) == 3

    def test_5xx_retried(self):
        transport = StubTransport([(503, {"error": "overloaded"}), (200, completion("ok"))])
        assert llm_chat(fast_config(), *PROMPT, transport=transport) == "ok"
        assert len(transport.calls) == 2

    def test_connection_error_retried(self):
        transport = StubTransport([OSError("refused"), (200, completion("ok"))])
        assert llm_chat(fast_config(), *PROMPT, transport=transport) == "ok"

    def test_4xx_is_immediate_request_error(self):
        transport = StubTransport([(400, {"error": "bad request"})])
        with pytest.raises(RequestError):
            llm_chat(fast_config(max_retries=3), *PROMPT, transport=transport)
        assert len(transport.calls) == 1

    def test_exhausted_retries_is_transport_error(self):
        transport = StubTransport([(429, {}), (429, {})])
        with pytest.raises(TransportError):
            llm_chat(fast_config(max_retries=1), *PROMPT, transport=transport)
        assert len(transport.calls) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout", 0), ("timeout", -1.0), ("max_retries", -1), ("max_retries", 1.5),
            ("backoff_ms", -5.0),
        ],
    )
    def test_bad_retry_policy_is_a_config_error(self, field, value):
        transport = StubTransport([(200, completion("unused"))])
        with pytest.raises(ConfigError, match=field):
            llm_chat(fast_config(**{field: value}), *PROMPT, transport=transport)
        assert transport.calls == []

    def test_missing_credential(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY")
        transport = StubTransport([(200, completion("never"))])
        with pytest.raises(ConfigError):
            llm_chat(fast_config(), *PROMPT, transport=transport)
        assert transport.calls == []

    def test_undeclared_tool_name_rejected(self):
        reply = tool_completion("launch_rockets", {"at": "moon"})
        transport = StubTransport([(200, reply)])
        with pytest.raises(ProtocolError):
            llm_chat(fast_config(), *PROMPT, (PROPOSE_TOOL,), transport)

    def test_unparseable_tool_arguments_rejected(self):
        reply = tool_completion("propose_models", "][ not json")
        transport = StubTransport([(200, reply)])
        with pytest.raises(ProtocolError):
            llm_chat(fast_config(), *PROMPT, (PROPOSE_TOOL,), transport)

    def test_malformed_body_rejected(self):
        transport = StubTransport([(200, b"<html>oops</html>")])
        with pytest.raises(ProtocolError):
            llm_chat(fast_config(), *PROMPT, transport=transport)

    def test_empty_message_rejected(self):
        transport = StubTransport([(200, {"choices": [{"message": {}}]})])
        with pytest.raises(ProtocolError):
            llm_chat(fast_config(), *PROMPT, transport=transport)


    @pytest.mark.parametrize(
        "message",
        ["hi", {"tool_calls": ["x"]}, {"tool_calls": [{"function": "f"}]}],
        ids=["message-is-text", "tool-call-is-text", "function-is-text"],
    )
    def test_non_object_message_parts_rejected(self, message):
        transport = StubTransport([(200, {"choices": [{"message": message}]})])
        with pytest.raises(ProtocolError):
            llm_chat(fast_config(), *PROMPT, (PROPOSE_TOOL,), transport)


class TestSharedClient:
    """llm_chat runs the adapter's retrying client (``agentcast._http``)."""

    def test_any_2xx_is_accepted(self):
        transport = StubTransport([(201, completion("created"))])
        assert llm_chat(fast_config(), *PROMPT, transport=transport) == "created"

    def test_truncated_reply_is_retried_then_a_transport_error(self):
        server = RawReplyServer(TRUNCATED_REPLY)
        try:
            config = fast_config(endpoint=server.url, max_retries=2)
            with pytest.raises(TransportError, match="IncompleteRead") as err:
                llm_chat(config, *PROMPT)
            assert f"{server.url}/chat/completions" in str(err.value)
            assert server.requests == 3
        finally:
            server.close()

    def test_calls_share_one_kept_connection(self):
        class ChatHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = json.dumps(completion("ok")).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), ChatHandler)
        server.daemon_threads = True
        accepted = count_connections(server)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            config = fast_config(endpoint=f"http://127.0.0.1:{server.server_address[1]}")
            assert [llm_chat(config, *PROMPT) for _ in range(2)] == ["ok", "ok"]
        finally:
            server.shutdown()
            server.server_close()
        assert len(accepted) == 1
