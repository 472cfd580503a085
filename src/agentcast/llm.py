"""Provider-agnostic chat-completions client.

The wire format is the OpenAI-compatible one: POST {endpoint}/chat/completions
with {"model", "temperature": 0.0, "messages", "tools"?}, where "messages" is
one system and one user message, and a bearer credential from a configured
environment variable.  Requests go through the same retrying client as
``adapter:`` models (``_http``), whose transport callable can be injected
for testing; it receives (url, body_bytes, headers, timeout) and
returns (status_code, response_bytes).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Mapping

from ._http import DEFAULT_BACKOFF_MS, DEFAULT_MAX_RETRIES, check_policy, post_json
from .errors import ConfigError, ProtocolError

__all__ = [
    "PROVIDER_DEFAULTS",
    "LLMConfig",
    "ToolSpec",
    "ToolCall",
    "llm_chat",
]

# Providers with a well-known endpoint; anything else must be configured.
PROVIDER_DEFAULTS = {"openai": ("https://api.openai.com/v1", "OPENAI_API_KEY")}

DEFAULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class LLMConfig:
    """Which model to talk to and how.

    ``spec`` is "provider:model".  For the "openai" provider the endpoint
    and credential variable have defaults; other providers must state
    both explicitly.
    """

    spec: str
    endpoint: str | None = None
    credential_var: str | None = None
    timeout: float = DEFAULT_TIMEOUT_S
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_ms: float = DEFAULT_BACKOFF_MS

    def __post_init__(self):
        if self.spec.count(":") != 1:
            raise ConfigError(
                f"model spec must be 'provider:model' with exactly one colon, "
                f"got {self.spec!r}"
            )
        provider, model = self.spec.split(":")
        if not provider or not model:
            raise ConfigError(f"model spec {self.spec!r} has an empty provider or model")
        check_policy(self)
        defaults = PROVIDER_DEFAULTS.get(provider)
        endpoint = self.endpoint
        credential = self.credential_var
        if endpoint is None:
            if defaults is None:
                raise ConfigError(
                    f"provider {provider!r} has no default endpoint; pass one explicitly"
                )
            endpoint = defaults[0]
        if credential is None:
            if defaults is None:
                raise ConfigError(
                    f"provider {provider!r} has no default credential variable; "
                    "pass one explicitly"
                )
            credential = defaults[1]
        object.__setattr__(self, "endpoint", endpoint.rstrip("/"))
        object.__setattr__(self, "credential_var", credential)

    @property
    def model(self) -> str:
        return self.spec.split(":")[1]


@dataclass(frozen=True)
class ToolSpec:
    """A function the assistant may call, with a JSON-schema argument spec."""

    name: str
    description: str
    parameters: Mapping

    def to_payload(self) -> dict:
        return {
            "type": "function",
            "function": {
                "name": self.name,
                "description": self.description,
                "parameters": dict(self.parameters),
            },
        }


@dataclass(frozen=True)
class ToolCall:
    name: str
    arguments: dict


def _parse_completion(data, declared_tools):
    try:
        message = data["choices"][0]["message"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed chat completion response: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"chat completion message is a {type(message).__name__}, not an object")

    calls = message.get("tool_calls") or ()
    if calls:
        call = calls[0] if isinstance(calls, list) else None
        function = call.get("function") if isinstance(call, dict) else None
        if not isinstance(function, dict):
            raise ProtocolError(f"malformed tool call in chat completion: {calls!r:.200}")
        name = function.get("name")
        if name not in {tool.name for tool in declared_tools}:
            raise ProtocolError(f"tool call {name!r} does not match any declared tool")
        raw = function.get("arguments", "")
        try:
            arguments = json.loads(raw) if isinstance(raw, str) else dict(raw)
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"unparseable tool arguments for {name!r}: {exc}") from None
        if not isinstance(arguments, dict):
            raise ProtocolError(
                f"tool arguments for {name!r} must be an object, got {type(arguments).__name__}"
            )
        return ToolCall(name, arguments)

    content = message.get("content")
    if not isinstance(content, str):
        raise ProtocolError("chat completion carries neither text nor a tool call")
    return content


def llm_chat(
    config: LLMConfig,
    system: str,
    user: str,
    tools: tuple[ToolSpec, ...] = (),
    transport: Callable | None = None,
):
    """One system + user chat-completions round trip at temperature 0;
    returns the assistant text or a ToolCall to one of ``tools``.

    The request goes through the adapter's client (``_http.post_json``):
    429, 5xx and transport faults are retried with exponential backoff up
    to ``config.max_retries``; any other non-2xx status is never retried.
    """
    credential = os.environ.get(config.credential_var, "")
    if not credential:
        raise ConfigError(
            f"credential variable {config.credential_var} is not set in the environment"
        )
    payload = {
        "model": config.model,
        "temperature": 0.0,
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
    }
    if tools:
        payload["tools"] = [tool.to_payload() for tool in tools]
    headers = {"Authorization": f"Bearer {credential}"}
    data = post_json(f"{config.endpoint}/chat/completions", payload, config, headers, transport)
    return _parse_completion(data, tools)
