"""The one JSON-over-HTTP client behind ``adapter:`` models and the LLM.

A 2xx reply returns its decoded JSON body; a body that is not JSON is a
``ProtocolError``.  A transport fault (``OSError``, or an
``http.client.HTTPException`` such as a truncated reply) and a 429 or
5xx status are retried up to ``max_retries`` times, waiting
``backoff_ms * 2**attempt`` ms before each retry, then raise
``TransportError``.  Any other status is a ``RequestError`` at once.
A transport is a callable ``(url, body_bytes, headers, timeout)``
returning ``(status_code, response_bytes)``.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

from .errors import ProtocolError, RequestError, TransportError

DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF_MS = 250.0


def urllib_transport(url, body, headers, timeout):
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def post_json(url, payload, policy, headers=None, transport=None):
    """POST ``payload`` as JSON to ``url`` and return the decoded reply.

    ``policy`` carries ``timeout`` (s), ``max_retries`` and ``backoff_ms``:
    an adapter ``ModelSpec`` or an ``LLMConfig``.
    """
    send = transport or urllib_transport
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json", **(headers or {})}
    max_retries = policy.max_retries
    last_failure = "no request sent"
    for attempt in range(max_retries + 1):
        try:
            status, response = send(url, body, headers, policy.timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_failure = f"{type(exc).__name__}: {exc}"
        else:
            if 200 <= status < 300:
                try:
                    return json.loads(response.decode("utf-8"))
                except ValueError as exc:
                    raise ProtocolError(f"{url} sent a body that is not JSON: {exc}") from None
            detail = response.decode("utf-8", errors="replace")[:500]
            if status != 429 and status < 500:
                raise RequestError(f"{url} rejected the request (HTTP {status}): {detail}")
            last_failure = f"HTTP {status}: {detail}"
        if attempt < max_retries:
            time.sleep(policy.backoff_ms * (2.0**attempt) / 1000.0)
    raise TransportError(f"{url} failed after {max_retries + 1} attempt(s); last: {last_failure}")
