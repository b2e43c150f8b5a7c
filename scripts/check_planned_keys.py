#!/usr/bin/env python
"""Lint: every registered experiment still plans the cell keys it planned.

A cell key names the result a cell computes (docs/PARALLEL.md), so a
change that moves a key invalidates every cache entry and run dir that
holds the cell. ``tests/orchestrate/planned_keys.json`` records the keys
each registered experiment plans at scale 0.05, with its default
workloads and one seed, annotations pinned at plan time included (those
experiments run their FDO flows while planning). This script re-plans
every experiment and reports each cell whose key moved, appeared or
disappeared; run it with ``--write`` to regenerate the file after a
deliberate key change.

Runs standalone (``python scripts/check_planned_keys.py``), inside
``scripts/lint.py``, and inside tier-1
(``tests/orchestrate/test_planned_keys.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
KEYS_PATH = REPO_ROOT / "tests" / "orchestrate" / "planned_keys.json"
SCALE = 0.05


def planned_keys() -> dict[str, dict[str, str]]:
    """``{experiment: {"workload/variant/instance": key}}`` for every
    registered experiment that plans cells."""
    from repro.orchestrate import get_experiment, registry

    keys = {}
    for name in sorted(registry()):
        plan = get_experiment(name)(scale=SCALE).plan()
        if plan:
            keys[name] = {
                f"{c.target.workload}/{c.target.variant}/{c.instance.name}": c.key
                for c in plan
            }
    return keys


def write_keys() -> None:
    KEYS_PATH.write_text(json.dumps(planned_keys(), indent=1, sort_keys=True) + "\n")


def check() -> list[str]:
    """Return one problem per cell whose planned key differs from the file."""
    if not KEYS_PATH.exists():
        return [f"{KEYS_PATH} does not exist; run with --write to create it"]
    recorded = json.loads(KEYS_PATH.read_text())
    current = planned_keys()
    problems = []
    for name in sorted(set(recorded) | set(current)):
        old, new = recorded.get(name, {}), current.get(name, {})
        for cell in sorted(set(old) | set(new)):
            if old.get(cell) != new.get(cell):
                problems.append(
                    f"{name} {cell}: key {old.get(cell)} is now {new.get(cell)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate tests/orchestrate/planned_keys.json, then check",
    )
    args = parser.parse_args(argv)
    if args.write:
        write_keys()
    problems = check()
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        recorded = json.loads(KEYS_PATH.read_text())
        print(f"planned keys unchanged: {sum(map(len, recorded.values()))} "
              f"cells of {len(recorded)} experiments")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
