"""Startup path: the entry-point packages import fast and run warning-free.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_entry_points_do_not_import_numpy():
    """numpy loads only when a workload table is built, never at startup."""
    proc = _python(
        "-c",
        "import sys, repro.orchestrate, repro.serve, repro.workloads; "
        "print('numpy' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_serve_client_runs_as_module_without_warning():
    proc = _python("-W", "error::RuntimeWarning", "-m", "repro.serve.client", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
