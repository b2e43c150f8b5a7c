"""Run with ``PYTHONPATH=src python -m pytest -q bench/tests`` from the repo root."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def run_bench(checkout: Path, *args: str) -> tuple[int, list[str]]:
    """Run ``bench/run.py`` in ``checkout``; returns (exit code, stdout lines)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=checkout, env=env,
        stdout=subprocess.PIPE, text=True, timeout=300)
    return completed.returncode, completed.stdout.strip().splitlines()


def last_json(lines: list[str]) -> dict:
    return json.loads(lines[-1])


@pytest.fixture
def checkout(tmp_path: Path) -> Path:
    """A copy of the benchmark with the repo's sources linked in."""
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "bench", copy / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    (copy / "src").symlink_to(ROOT / "src")
    return copy
