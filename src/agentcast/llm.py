"""Provider-agnostic chat-completions client.

The wire format is the OpenAI-compatible one: POST {endpoint}/chat/completions
with {"model", "temperature", "messages", "tools"?}, bearer credential from a
configured environment variable.  Requests go through the same retrying
client as ``adapter:`` models (``_http``), whose transport callable can be
injected for testing; it receives (url, body_bytes, headers, timeout) and
returns (status_code, response_bytes).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Mapping

from ._http import DEFAULT_BACKOFF_MS, DEFAULT_MAX_RETRIES, post_json
from .errors import ConfigError, ProtocolError

__all__ = [
    "PROVIDER_DEFAULTS",
    "LLMConfig",
    "ChatMessage",
    "ToolSpec",
    "ChatExchange",
    "ToolCall",
    "llm_chat",
]

# Providers with a well-known endpoint; anything else must be configured.
PROVIDER_DEFAULTS = {"openai": ("https://api.openai.com/v1", "OPENAI_API_KEY")}

CHAT_ROLES = ("system", "user", "assistant", "tool")

DEFAULT_TEMPERATURE = 0.0
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
    temperature: float = DEFAULT_TEMPERATURE
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
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
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
    def provider(self) -> str:
        return self.spec.split(":")[0]

    @property
    def model(self) -> str:
        return self.spec.split(":")[1]


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in CHAT_ROLES:
            raise ValueError(f"role {self.role!r} not among {CHAT_ROLES}")


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
class ChatExchange:
    messages: tuple[ChatMessage, ...]
    tools: tuple[ToolSpec, ...] = ()

    def __post_init__(self):
        if not self.messages:
            raise ValueError("chat exchange needs at least one message")


@dataclass(frozen=True)
class ToolCall:
    name: str
    arguments: dict


def _parse_completion(data, declared_tools):
    try:
        message = data["choices"][0]["message"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed chat completion response: {exc}") from None

    calls = message.get("tool_calls") or ()
    if calls:
        function = calls[0].get("function", {})
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
    exchange: ChatExchange,
    transport: Callable | None = None,
):
    """One chat-completions round trip; returns assistant text or a ToolCall.

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
        "temperature": config.temperature,
        "messages": [{"role": m.role, "content": m.content} for m in exchange.messages],
    }
    if exchange.tools:
        payload["tools"] = [tool.to_payload() for tool in exchange.tools]
    headers = {"Authorization": f"Bearer {credential}"}
    data = post_json(f"{config.endpoint}/chat/completions", payload, config, headers, transport)
    return _parse_completion(data, exchange.tools)
