#!/usr/bin/env python
"""CI serving-layer gate: boot ``repro serve``, drive one job end to end.

The sequence, all through the real HTTP surface:

1. start ``python -m repro serve`` on an ephemeral port and poll
   ``/healthz`` until it answers;
2. ``POST /jobs`` the smoke scenario, expect **201** (created);
3. ``POST`` the same scenario again, expect **200** and the *same*
   ``job_id`` — content-addressed dedupe is the service's core promise;
4. poll ``GET /jobs/<id>`` to a terminal state, demand ``done``;
5. validate the status payload's embedded run manifest against
   ``RUN_MANIFEST_KEYS`` (``validate_run_manifest``) and check its
   ``config_hash`` equals the job id;
6. fetch ``GET /jobs/<id>/result`` and check it carries replications.

Exit codes: 0 success, 1 contract violation (wrong status/state/schema),
2 orchestration failure (server never came up, scenario missing).
"""

from __future__ import annotations

import argparse
import json
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(url: str, payload: dict | None = None) -> tuple[int, dict]:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if payload is not None else "GET",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_for_health(base: str, server: subprocess.Popen, deadline_s: float) -> bool:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if server.poll() is not None:
            return False
        try:
            if request(f"{base}/healthz")[0] == 200:
                return True
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            time.sleep(0.2)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        type=Path,
        default=REPO_ROOT / "scenarios" / "fig4_smoke.yaml",
        help="scenario file to submit (default scenarios/fig4_smoke.yaml)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()
    if not args.scenario.exists():
        print(f"scenario not found: {args.scenario}", file=sys.stderr)
        return 2
    # parse via the scenario layer so the submission is exactly what
    # `repro run` would execute (and fails fast if the file is invalid)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.scenarios import load_scenario
    from repro.utils.validation import validate_run_manifest

    scenario = load_scenario(args.scenario)
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    workdir = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
        "--root",
        str(workdir / "store"),
        "--scenarios",
        str(args.scenario.parent),
    ]
    print(f"$ {' '.join(cmd)}")
    server = subprocess.Popen(cmd)
    try:
        if not wait_for_health(base, server, deadline_s=60):
            print("server never became healthy", file=sys.stderr)
            return 2
        print(f"healthy at {base}")

        code, record = request(f"{base}/jobs", scenario)
        if code != 201:
            print(f"first submit: expected 201, got {code}: {record}", file=sys.stderr)
            return 1
        job_id = record["job_id"]
        print(f"submitted {scenario['name']} -> job {job_id[:16]} (201)")

        code, again = request(f"{base}/jobs", scenario)
        if code != 200 or again.get("job_id") != job_id:
            print(
                f"duplicate submit must dedupe to 200/{job_id[:16]},"
                f" got {code}/{again.get('job_id', '?')[:16]}",
                file=sys.stderr,
            )
            return 1
        print("duplicate submission deduped (200, same content address)")

        deadline = time.monotonic() + args.timeout
        status: dict = {}
        while time.monotonic() < deadline:
            code, status = request(f"{base}/jobs/{job_id}")
            if code != 200:
                print(f"status: expected 200, got {code}", file=sys.stderr)
                return 1
            if status["state"] in ("done", "failed"):
                break
            time.sleep(0.5)
        if status.get("state") != "done":
            print(f"job did not finish cleanly: {status}", file=sys.stderr)
            return 1
        print(f"job done after {status['attempts']} attempt(s)")

        manifest = status.get("manifest")
        try:
            validate_run_manifest(manifest, name="status manifest")
        except ValueError as exc:
            print(f"served manifest violates the schema: {exc}", file=sys.stderr)
            return 1
        if manifest["config_hash"] != job_id:
            print(
                "manifest config_hash does not match the job's content"
                f" address: {manifest['config_hash'][:16]} != {job_id[:16]}",
                file=sys.stderr,
            )
            return 1
        print("status payload serves a schema-valid run manifest")

        code, result = request(f"{base}/jobs/{job_id}/result")
        if code != 200 or not result.get("replications"):
            print(f"result: expected replications, got {code}", file=sys.stderr)
            return 1
        print(f"result carries {len(result['replications'])} replication(s)")
        print("\nOK: service round trip (submit, dedupe, run, manifest, result)")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    raise SystemExit(main())
