"""HTTP glue: a stdlib ``ThreadingHTTPServer`` over :class:`PlanService`.

Deliberately thin — all routing, validation, admission, and
observability live in :mod:`repro.serve.api`; this module only parses
JSON bodies, maps transport-level problems to clean JSON errors, and
guarantees that **no traceback ever crosses the wire**: an unexpected
exception becomes a bare ``500 {"error": "internal server error"}``
while the detail goes to the server log.

``ThreadingHTTPServer`` spawns a thread per connection; the admission
controller inside the service lets one of those *do work* at a time
and bounds how many wait, so overload sheds with 429/503 at JSON-parse
speed instead of piling planning threads (see
:mod:`repro.serve.admission`).
"""

from __future__ import annotations

import json
import sys
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from ..obs import span
from .api import PlanService

#: Request bodies above this are refused with 413 — plan/update/journey
#: payloads are small; anything bigger is a mistake or abuse.
MAX_BODY_BYTES = 1 << 20


class PlanHTTPServer(ThreadingHTTPServer):
    """The daemon's server socket, carrying its :class:`PlanService`."""

    #: Worker threads must not block interpreter exit after shutdown.
    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], service: PlanService
    ) -> None:
        super().__init__(address, _RequestHandler)
        self.service = service


class _RequestHandler(BaseHTTPRequestHandler):
    server: PlanHTTPServer
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    sys_version = ""

    def log_message(self, format: str, *args: Any) -> None:
        # The default implementation logs every request line to stderr;
        # the serve tests fire hundreds.  Keep errors, drop access logs.
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond(*self.server.service.handle("GET", self.path, None))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        payload, problem = self._read_json()
        if problem is not None:
            self._respond(*problem)
            return
        self._respond(*self.server.service.handle("POST", self.path, payload))

    def _read_json(
        self,
    ) -> Tuple[Optional[Any], Optional[Tuple[int, dict]]]:
        """The request body as a JSON object, or a ready error reply."""
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would wait for the client to close the
            # connection, holding a handler thread; and with no usable
            # length the body cannot be framed, so the connection ends.
            self.close_connection = True
            return None, (400, {"error": "malformed Content-Length header"})
        if length > MAX_BODY_BYTES:
            # Drain what the client already put on the wire before
            # replying, else the 413 races the client's send and it
            # sees a broken pipe instead of the error body.  Bounded:
            # Content-Length lies bigger than 8 MiB just drop the
            # connection after the reply.
            remaining = min(length, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            return None, (
                413,
                {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"},
            )
        body = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None, (400, {"error": "request body is not valid JSON"})
        if payload is not None and not isinstance(payload, dict):
            return None, (400, {"error": "request body must be a JSON object"})
        return payload, None

    def _respond(self, status: int, body: dict) -> None:
        try:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError):  # pragma: no cover - handler bug
            status = 500
            data = b'{"error": "internal server error"}'
        # One write: sent apart, the body waits for the client's delayed
        # ACK of the headers (Nagle), ~40 ms on a keep-alive connection.
        # A reply that ends the connection says so, or a keep-alive
        # client sends its next request into the closed socket.
        self.log_request(status)
        head = (
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + f"Content-Length: {len(data)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + data)

    def handle_one_request(self) -> None:
        """One request, with the no-traceback-on-the-wire guarantee."""
        try:
            super().handle_one_request()
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            print(
                f"serve: internal error handling {self.path}: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            self.close_connection = True
            try:
                self._respond(500, {"error": "internal server error"})
            except OSError:
                pass  # client already gone


def create_server(
    service: PlanService, *, host: str = "127.0.0.1", port: int = 0
) -> PlanHTTPServer:
    """Bind the daemon's socket (``port=0`` picks an ephemeral port —
    the bound port is ``server.server_address[1]``)."""
    return PlanHTTPServer((host, port), service)


def run_server(server: PlanHTTPServer) -> None:
    """Serve until :meth:`~socketserver.BaseServer.shutdown` is called
    or the poll loop is interrupted (Ctrl-C / SIGTERM in the CLI)."""
    with span("serve.loop", datasets=len(server.service.registry.names())):
        server.serve_forever(poll_interval=0.1)
