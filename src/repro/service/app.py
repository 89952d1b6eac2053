"""The HTTP skin over :class:`~repro.service.endpoints.Service`.

``build_httpd`` wraps the service in a ``http.server.ThreadingHTTPServer``
with zero dependencies, so ``repro serve`` works in any environment the
simulator itself runs in.  The server holds no state: jobs, results, and
manifests live in the runner's content-addressed store, so a restarted
server recovers mid-flight jobs via checkpoints.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.service.endpoints import Service
from repro.service.runner import JobRunner

__all__ = ["build_httpd", "build_service", "run_service"]


class _ServiceHandler(BaseHTTPRequestHandler):
    """Dependency-free request handler over a :class:`Service`."""

    service: Service  # bound by build_httpd

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # stay quiet; observability lives in the telemetry layer

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = path.strip("/").split("/")
        if path == "/healthz":
            self._send_json(*self.service.healthz())
        elif path == "/scenarios":
            self._send_json(*self.service.list_scenarios())
        elif path == "/jobs":
            self._send_json(*self.service.list_jobs())
        elif len(parts) == 2 and parts[0] == "jobs":
            self._send_json(*self.service.status(parts[1]))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._send_json(*self.service.result(parts[1]))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream":
            self._stream(parts[1])
        else:
            self._send_json(404, {"error": f"no such endpoint {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs":
            self._send_json(404, {"error": f"no such endpoint {path!r}"})
            return
        length = int(self.headers.get("Content-Length") or 0)
        try:
            body = json.loads(self.rfile.read(length) or b"")
        except json.JSONDecodeError:
            self._send_json(400, {"error": "submission body must be valid JSON"})
            return
        self._send_json(*self.service.submit(body))

    def _stream(self, job_id: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            for snapshot in self.service.stream(job_id):
                self.wfile.write(json.dumps(snapshot).encode() + b"\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream


def build_httpd(
    service: Service, host: str = "127.0.0.1", port: int = 8000
) -> ThreadingHTTPServer:
    """A ready-to-serve stdlib HTTP server bound to ``service``."""
    handler = type(
        "BoundServiceHandler", (_ServiceHandler,), {"service": service}
    )
    return ThreadingHTTPServer((host, port), handler)


def build_service(
    root: str | Path,
    scenarios_dir: str | Path | None = None,
) -> Service:
    """A recovered, running service over the store at ``root``."""
    runner = JobRunner(root)
    runner.recover()
    runner.start()
    return Service(runner, scenarios_dir=scenarios_dir)


def run_service(
    root: str | Path,
    host: str = "127.0.0.1",
    port: int = 8000,
    scenarios_dir: str | Path | None = None,
) -> None:
    """Serve until interrupted (the blocking core of ``repro serve``)."""
    service = build_service(root, scenarios_dir=scenarios_dir)
    try:
        httpd = build_httpd(service, host=host, port=port)
        try:
            httpd.serve_forever()
        finally:
            httpd.server_close()
    finally:
        service.runner.stop()
