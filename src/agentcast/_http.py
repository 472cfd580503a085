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
when the interpreter exits.  A connection goes back to the pool only
once its whole reply has been read and the server has not asked to close
it; any exception closes it, so a reply that arrives after a timeout is
never read as the answer to the next request.  A reused connection's
timeout is reset only when the request's spec sets another one.  A
reused connection that the server closed while it sat idle fails before
any status line arrives: the request is then sent once more, at once, on
a fresh connection, which is not a retry.  Each request leaves in one
socket write, its header block and body joined, where stock
``http.client`` makes two: the second write would be a second segment
for the server to read, and Nagle's algorithm may hold it back until the
first is ACKed.  The bytes on the wire are stock ``http.client``'s, and
its header checks still run before anything is sent.  A URL that an
``*_proxy`` environment variable covers goes through urllib instead (in
two writes); the proxy environment is read whenever no kept connection
to the host is idle, so a connection that is kept stays direct.
``http.client`` and ``urllib.request`` load with the first request, not
with the package.
"""

from __future__ import annotations

import atexit
import json
import math
import sys
import threading
import time
import urllib.parse

from .errors import ConfigError, ProtocolError, RequestError, TransportError

DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF_MS = 250.0

# What the urllib transport sends (urllib.request.__version__ is the
# Python version), so a server sees the same client on either path.
_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]

# How a kept connection that the server closed while it sat idle fails
# (http.client.RemoteDisconnected is a ConnectionResetError).
_STALE = (ConnectionResetError, BrokenPipeError)

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
    """ConfigError unless 0 < timeout <= threading.TIMEOUT_MAX s,
    max_retries is an int >= 0, backoff_ms is finite and >= 0, and the
    longest backoff wait is at most threading.TIMEOUT_MAX s: a socket
    timeout or a sleep beyond that overflows the platform's time_t."""
    if not 0 < policy.timeout <= threading.TIMEOUT_MAX:
        raise ConfigError(
            f"timeout must be positive and at most {threading.TIMEOUT_MAX:g} s, "
            f"got {policy.timeout}"
        )
    if not (isinstance(policy.max_retries, int) and policy.max_retries >= 0):
        raise ConfigError(f"max_retries must be an integer >= 0, got {policy.max_retries!r}")
    if not 0 <= policy.backoff_ms < math.inf:
        raise ConfigError(f"backoff_ms must be finite and >= 0, got {policy.backoff_ms}")
    if policy.max_retries and policy.backoff_ms:
        try:
            longest = _backoff_s(policy.backoff_ms, policy.max_retries - 1)
        except OverflowError:
            longest = math.inf
        if longest > threading.TIMEOUT_MAX:
            raise ConfigError(
                f"backoff_ms {policy.backoff_ms} with max_retries {policy.max_retries} "
                f"waits {longest:g} s before the last retry, more than "
                f"{threading.TIMEOUT_MAX:g} s"
            )


def _backoff_s(backoff_ms, attempt):
    """The wait (s) before retry ``attempt + 1``: backoff_ms * 2**attempt ms."""
    return math.ldexp(backoff_ms, attempt) / 1000.0


def urllib_transport(url, body, headers, timeout):
    """The transport for a URL that an ``*_proxy`` environment variable
    covers, and only for that: urllib handles the proxy and its
    authentication.  The opener is built per call, so the environment at
    the time of the request decides, and a 3xx reply is returned as it
    is, as on the pooled path."""
    import urllib.error
    import urllib.request

    class _NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None  # urllib then raises the 3xx as an HTTPError

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
    import urllib.request

    return scheme in urllib.request.getproxies() and not urllib.request.proxy_bypass(netloc)


# The connection classes by scheme, built on the first request to each.
_kinds: dict[str, type] = {}


def _connection_kind(scheme: str) -> type:
    """``http.client``'s connection class for ``scheme``, sending a request
    whose body is bytes in one write: its ``_send_output`` joins the body
    to the header block that ``putheader`` has already checked."""
    kind = _kinds.get(scheme)
    if kind is None:
        import http.client

        base = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection

        class OneWrite(base):
            def _send_output(self, message_body=None, encode_chunked=False):
                if not isinstance(message_body, bytes) or encode_chunked:
                    return super()._send_output(message_body, encode_chunked)
                self._buffer.extend((b"", message_body))
                message = b"\r\n".join(self._buffer)
                del self._buffer[:]
                self.send(message)

        kind = _kinds.setdefault(scheme, OneWrite)
    return kind


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
            if conn.sock.gettimeout() != timeout:  # a settimeout call drops the GIL
                conn.sock.settimeout(timeout)
            try:
                response = _exchange(conn, target, body, headers)
            except _STALE:
                conn.close()
                conn = None
        if conn is None:
            conn = _connection_kind(parts.scheme)(parts.netloc, timeout=timeout)
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
    import http.client

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
            time.sleep(_backoff_s(policy.backoff_ms, attempt))
    raise TransportError(f"{url} failed after {max_retries + 1} attempt(s); last: {last_failure}")
