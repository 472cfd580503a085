"""The one JSON-over-HTTP client behind ``adapter:`` models and the LLM.

A 2xx reply returns its decoded JSON body; a body that is not JSON is a
``ProtocolError``.  A transport fault (``OSError``, or an
``http.client.HTTPException`` such as a truncated reply) and a 429 or
5xx status are retried up to ``max_retries`` times, waiting
``backoff_ms * 2**attempt`` ms before each retry, then raise
``TransportError``.  Any other status, a 3xx included (redirects are
not followed), is a ``RequestError`` at once.
A transport is a callable ``(url, body_bytes, headers, timeout)``
returning ``(status_code, response_bytes)``.  ``check_policy`` bounds
the policy values when an adapter spec or an LLM config is built.

The default transport keeps HTTP/1.1 connections alive.  Idle
connections wait in a pool keyed by scheme and host:port, so a process
holds at most one per request in flight to each server, and closes them
when the interpreter exits.  A connection
goes back to the pool only once its whole reply has been read and the
server has not asked to close it; any exception closes it, so a reply
that arrives after a timeout is never read as the answer to the next
request.  A reused connection that the server closed while it sat idle
fails before any status line arrives: the request is then sent once
more, at once, on a fresh connection, which is not a retry.  A URL that
an ``*_proxy`` environment variable covers goes through urllib instead;
the proxy environment is read whenever no kept connection to the host is
idle, so a connection that is kept stays direct.
"""

from __future__ import annotations

import atexit
import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

from .errors import ConfigError, ProtocolError, RequestError, TransportError

DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF_MS = 250.0

# What the urllib transport sends, so a server sees the same client on
# either path.
_USER_AGENT = f"Python-urllib/{urllib.request.__version__}"

# How a kept connection that the server closed while it sat idle fails
# (RemoteDisconnected is a ConnectionResetError, named for the reader).
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)

# Idle kept-alive connections by (scheme, host:port).
_idle: dict[tuple[str, str], list[http.client.HTTPConnection]] = {}
_idle_lock = threading.Lock()


@atexit.register
def _close_idle() -> None:
    """Close every idle kept connection, so none is left for the
    interpreter's teardown to find open."""
    with _idle_lock:
        for conns in _idle.values():
            for conn in conns:
                conn.close()
        _idle.clear()


def check_policy(policy):
    """ConfigError unless timeout > 0, max_retries is an int >= 0 and backoff_ms >= 0."""
    if not policy.timeout > 0:
        raise ConfigError(f"timeout must be positive, got {policy.timeout}")
    if not (isinstance(policy.max_retries, int) and policy.max_retries >= 0):
        raise ConfigError(f"max_retries must be an integer >= 0, got {policy.max_retries!r}")
    if not policy.backoff_ms >= 0:
        raise ConfigError(f"backoff_ms must be >= 0, got {policy.backoff_ms}")


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args):
        return None  # urllib then raises the 3xx as an HTTPError


def urllib_transport(url, body, headers, timeout):
    """The transport for a URL that an ``*_proxy`` environment variable
    covers, and only for that: urllib handles the proxy and its
    authentication.  The opener is built per call, so the environment at
    the time of the request decides, and a 3xx reply is returned as it
    is, as on the pooled path."""
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.build_opener(_NoRedirect).open(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _proxied(scheme: str, netloc: str) -> bool:
    """Whether urllib would send a request to this host through a proxy.
    It scans the whole environment: 0.12 ms with 78 variables, so it is
    not asked again while a kept connection to the host is idle."""
    return scheme in urllib.request.getproxies() and not urllib.request.proxy_bypass(netloc)


def _exchange(conn, target, body, headers) -> http.client.HTTPResponse:
    conn.request("POST", target, body, headers)
    return conn.getresponse()


def pooled_transport(url, body, headers, timeout):
    """The default transport: a kept-alive connection from the pool, or a
    new one when none is idle."""
    parts = urllib.parse.urlsplit(url)
    key = (parts.scheme, parts.netloc)
    with _idle_lock:
        conn = _idle[key].pop() if _idle.get(key) else None
    if conn is None and _proxied(*key):
        return urllib_transport(url, body, headers, timeout)
    target = parts.path + (f"?{parts.query}" if parts.query else "")
    headers = {"User-Agent": _USER_AGENT, **headers}
    try:
        if conn is not None:
            conn.sock.settimeout(timeout)  # specs that share a host can differ
            try:
                response = _exchange(conn, target, body, headers)
            except _STALE:
                conn.close()
                conn = None
        if conn is None:
            https = parts.scheme == "https"
            kind = http.client.HTTPSConnection if https else http.client.HTTPConnection
            conn = kind(parts.netloc, timeout=timeout)
            response = _exchange(conn, target, body, headers)
        reply = response.read()
    except BaseException:
        if conn is not None:
            conn.close()
        raise
    if response.will_close:
        conn.close()
    else:
        with _idle_lock:
            _idle.setdefault(key, []).append(conn)
    return response.status, reply


def post_json(url, payload, policy, headers=None, transport=None):
    """POST ``payload`` as JSON to ``url`` and return the decoded reply.

    ``policy`` carries ``timeout`` (s), ``max_retries`` and ``backoff_ms``:
    an adapter ``ModelSpec`` or an ``LLMConfig``.
    """
    send = transport or pooled_transport
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
