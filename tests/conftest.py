"""The ``server`` fixture: a local HTTP/1.1 completion backend.

It keeps connections alive, serves each on its own thread, and counts the
connections it accepted and the ones that ended. Tests queue replies in
``server.responses``: a ``(status, body)`` pair, where body is a JSON value,
raw bytes, a function of the request payload or None for "Passage A" to
every prompt; bytes, sent verbatim as the whole reply, after which the
connection stays open as for any other reply; or ``"drop"``, which closes the
connection without replying.
With ``server.close_after_reply`` set, every reply is followed by a close
that the reply does not announce, as an idle timeout would do. With
``server.goodbye`` set to bytes, the server sends them unasked a moment after
every reply, counts them in ``server.goodbyes`` and closes the connection.
With ``server.reply_for`` set to a function of the request payload, its
result is the reply to every request, in place of the queue, so a test can
key replies on what a request asks rather than on when it arrives. Every
request is held for ``server.delay_s`` seconds before its reply, and
``server.peak_in_flight`` records the most requests served at once.
"""

import json
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        with self.server.lock:
            self.server.requests.append(
                {
                    "payload": payload,
                    "authorization": self.headers.get("Authorization"),
                    "proxy_authorization": self.headers.get("Proxy-Authorization"),
                    "host": self.headers.get("Host"),
                    "content_type": self.headers.get("Content-Type"),
                    "target": self.path,
                }
            )
            if self.server.reply_for is not None:
                reply = self.server.reply_for(payload)
            else:
                reply = self.server.responses.pop(0) if self.server.responses else (200, None)
            self.server.in_flight += 1
            self.server.peak_in_flight = max(self.server.peak_in_flight, self.server.in_flight)
        try:
            time.sleep(self.server.delay_s)
            self._reply(payload, reply)
        finally:
            with self.server.lock:
                self.server.in_flight -= 1

    def _reply(self, payload, reply):
        if reply == "drop":
            self.close_connection = True
            return
        if isinstance(reply, bytes):
            response = reply
        else:
            status, body = reply
            if body is None:
                body = {"completions": ["Passage A"] * len(payload.get("prompts", []))}
            if callable(body):
                body = body(payload)
            data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("ascii")
            response = head + data
        # Header and body leave in one write: split writes meet delayed ACK
        # on a reused connection and cost tens of milliseconds per call.
        self.wfile.write(response)
        if self.server.close_after_reply:
            self.close_connection = True
        elif self.server.goodbye is not None:
            time.sleep(0.02)  # the client has read the reply by now
            self.wfile.write(self.server.goodbye)
            with self.server.lock:
                self.server.goodbyes += 1
            # Close only once the client has: on loopback, a close first makes
            # the client's next send draw a reset that discards the goodbye.
            # A client that closes with the goodbye unread resets the connection.
            try:
                self.rfile.read()
            except ConnectionResetError:
                pass
            self.close_connection = True

    def do_CONNECT(self):
        self.server.requests.append({"method": "CONNECT", "target": self.path})
        self.send_error(HTTPStatus.BAD_GATEWAY)

    def log_message(self, *args):
        pass


class _Backend(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 32  # every cell of a full pool connects at once

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.requests: list[dict] = []
        self.responses: list = []
        self.close_after_reply = False
        self.goodbye: bytes | None = None
        self.goodbyes = 0
        self.reply_for = None
        self.delay_s = 0.0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.connections = 0
        self.closed = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/complete"


@pytest.fixture
def server():
    httpd = _Backend()
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield httpd
    httpd.shutdown()
    thread.join(timeout=5)
    httpd.server_close()
