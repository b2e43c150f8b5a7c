"""Golden simulated results for benchmark seeds 0-2, and the check against them.

``bench/golden.json`` holds, per cell identity, the ``SimStats.digest()``
of every suite and sampled cell, the ``[cycles, retired]`` every serve job
answers, and the full-run IPC of each sampled parent. It is generated with
the array engine, which is digest-identical to the object engine::

    python3 bench/golden.py --write   # regenerate
    python3 bench/golden.py           # recompute and compare

A seed with no golden entry is reported as unverified, not as failed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEEDS = (0, 1, 2)
ENGINE = "array"


def cell_id(spec, sample: str = "off") -> str:
    """The identity a golden entry is stored under."""
    return f"{spec.workload}|{spec.variant}|{spec.mode}|{spec.scale:g}|{sample}"


class Verdict:
    """Tally of outputs checked against the golden file."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.checked = 0
        self.unverified = 0
        self.mismatches: list[str] = []

    def compare(self, section: str, key: str, value) -> bool:
        """False on a mismatch; a missing entry only counts as unverified."""
        expected = self.golden.get(section, {}).get(key)
        if expected is None:
            self.unverified += 1
            return True
        self.checked += 1
        if expected != value:
            self.mismatches.append(f"{section} {key}: expected {expected}, got {value}")
            return False
        return True

    @property
    def verified(self) -> bool:
        return self.checked > 0 and self.unverified == 0 and not self.mismatches


def load(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def compute(run_seconds: float) -> dict:
    """Every golden entry, recomputed with the array engine."""
    from repro.parallel.executor import run_cells
    from repro.sampling import parse_sample, run_cells_sampled

    from . import workloads as wl

    golden: dict = {"cells": {}, "sampled": {}, "full_ipc": {}, "serve": {}}
    for seed in GOLDEN_SEEDS:
        suite = [c.spec for c in wl.suite_experiment(seed).plan()]
        for spec, result in zip(suite, run_cells(
                [replace(s, engine=ENGINE) for s in suite], jobs=wl.JOBS)):
            golden["cells"][cell_id(spec)] = result.require_stats().digest()

        parents = [replace(c.spec, engine=ENGINE)
                   for c in wl.sampled_experiment(seed).plan()]
        sampled = run_cells_sampled(parents, parse_sample(wl.SAMPLE), jobs=wl.JOBS)
        full = run_cells(parents, jobs=wl.JOBS)
        for spec, estimate, whole in zip(parents, sampled, full):
            golden["sampled"][cell_id(spec, wl.SAMPLE)] = estimate.require_stats().digest()
            golden["full_ipc"][cell_id(spec)] = whole.ipc

        jobs = [replace(spec, engine=ENGINE)
                for spec in wl.serve_specs(seed, wl.serve_job_count(run_seconds))]
        for spec, result in zip(jobs, run_cells(jobs, jobs=wl.JOBS)):
            stats = result.require_stats()
            golden["serve"][cell_id(spec)] = [stats.cycles, stats.retired]
    return golden


def main(argv: list[str]) -> int:
    from . import run

    fresh = compute(run.benchmark_config()["run_seconds"])
    if "--write" in argv:
        GOLDEN_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    stored = load()
    diff = [f"{section} {key}" for section in fresh
            for key in set(fresh[section]) | set(stored.get(section, {}))
            if fresh[section].get(key) != stored.get(section, {}).get(key)]
    for line in sorted(diff):
        print("differs:", line)
    print(f"{len(diff)} golden entries differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from bench import golden, run

    run.use_checkout_src()
    raise SystemExit(golden.main(sys.argv[1:]))
