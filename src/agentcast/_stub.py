"""The threaded stub server, imported by the first ``adapters.serve_stub``
call so that ``http.server`` loads only then."""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

from .adapters import _stub_forecast


class _StubHandler(BaseHTTPRequestHandler):
    stub: "StubServer"  # bound by StubServer

    # Keep-alive.  A reply is buffered whole and leaves in one write when
    # handle_one_request flushes it; a client that has gone makes that
    # flush raise, and the server's quiet handle_error ends the
    # connection.  TCP_NODELAY still keeps Nagle's algorithm from holding
    # back the tail of a reply too large for the buffer until the
    # client's delayed ACK, about 40 ms.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = 1 << 16

    def log_message(self, *args):
        pass

    def handle_expect_100(self):
        answered = super().handle_expect_100()
        self.wfile.flush()  # the client waits for this line before its body
        return answered

    def _send(self, code: int, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

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
        # connection, it would be parsed as the next request.  A length is
        # 1*DIGIT (RFC 9110 8.6); int() would also take "+1", "1_0" or "-0".
        try:
            length = self.headers.get("Content-Length", "0").strip(" \t")
            if not (length.isascii() and length.isdigit()) or "Transfer-Encoding" in self.headers:
                raise ValueError
            length = int(length)  # a ValueError past 4,300 digits
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
        pass  # a client that dropped its connection (e.g. timed out) is expected


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
