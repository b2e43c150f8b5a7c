#!/usr/bin/env python
"""Smoke test for the job server: start, submit, SIGTERM-drain, resume.

Starts ``python -m repro.serve`` as a real subprocess on a UNIX socket,
submits one cell through the client, asserts the result arrives with a
plausible IPC, then delivers SIGTERM with a bulk sweep still in flight
and asserts the server drains gracefully: exit code 0 and a "drained"
farewell on stdout. When the drain cut the sweep short, its run dir must
be a partial orchestrate run that ``python -m repro.orchestrate run
--resume --run-dir <dir>`` finishes: exit 0, manifest ``complete``, and
all 6 cells stored.

Run by CI (the ``serve-smoke`` job) and by
``tests/serve/test_server.py``; exits 0 and prints ``SMOKE OK`` on
success.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402


def wait_for(predicate, *, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise SystemExit(f"smoke FAILED: timed out waiting for {what}")
        time.sleep(0.1)


def resume_drained(run_dir: pathlib.Path, workdir: pathlib.Path, env,
                   cells: int) -> None:
    """Finish a drained ``cells``-cell sweep with the one-line resume."""
    from repro.orchestrate.rundir import MANIFEST_VERSION, load_cells, load_manifest

    manifest = load_manifest(run_dir)
    assert manifest["manifest_version"] == MANIFEST_VERSION, manifest
    # Full instance identity must be recorded (resume safety).
    assert manifest["instance"]["engine"] in ("obj", "array"), manifest
    assert isinstance(manifest["instance"]["cache_schema"], int), manifest
    assert manifest["status"] == "partial", manifest
    print(f"drained run dir: {run_dir.name} "
          f"({len(load_cells(run_dir))}/{cells} cells finished)")

    resumed = subprocess.run(
        [sys.executable, "-m", "repro.orchestrate", "run", "--resume",
         "--run-dir", str(run_dir), "--cache-dir", str(workdir / "cache")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    print(resumed.stdout, end="")
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert load_manifest(run_dir)["status"] == "complete"
    stored = load_cells(run_dir)
    assert len(stored) == cells, sorted(stored)
    assert all(cell["status"] == "done" for cell in stored.values()), stored
    print(f"drained sweep resumed: {cells}/{cells} cells done")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args()
    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="serve-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    socket_path = str(workdir / "serve.sock")
    drain_dir = str(workdir / "drain")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--socket", socket_path,
         "--jobs", "2",
         "--cache-dir", str(workdir / "cache"),
         "--drain-dir", drain_dir,
         "--drain-timeout", "5"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        wait_for(lambda: os.path.exists(socket_path),
                 timeout=30, what="the server socket")

        with ServeClient(socket_path=socket_path) as client:
            health = client.health()
            assert health["status"] == "serving", health

            # One interactive cell, end to end.
            job = client.submit([{"workload": "pointer_chase", "mode": "ooo",
                                  "scale": args.scale}])
            done = client.wait(job["job"], timeout=120)
            assert done["state"] == "done", done
            (row,) = done["results"]
            assert row["status"] == "done" and row["ipc"] > 0, row
            print(f"cell ok: ipc={row['ipc']:.4f}")

            # A bulk sweep left in flight for the drain to checkpoint.
            sweep = client.sweep(
                ["pointer_chase", "div_chain", "mcf"], ["ooo", "crisp"],
                scale=args.scale)
            print(f"sweep admitted: {sweep['job']} ({sweep['cells']} cells)")

        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=120)
        print(out, end="")
        assert server.returncode == 0, f"exit code {server.returncode}"
        assert "drained, exiting" in out, "no graceful-drain farewell"

        # A SIGTERM mid-sweep leaves either a finished job (nothing to
        # resume) or a partial run dir for the remainder.
        run_dir = pathlib.Path(drain_dir) / sweep["job"]
        if run_dir.is_dir():
            resume_drained(run_dir, workdir, env, sweep["cells"])
        else:
            print("sweep finished before SIGTERM; nothing to resume")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
