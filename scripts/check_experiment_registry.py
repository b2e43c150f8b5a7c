#!/usr/bin/env python
"""Lint: the experiment registry is complete and documented.

Two invariants (docs/ORCHESTRATION.md):

* every figure module in ``src/repro/experiments/`` (all but
  ``__init__.py`` and ``common.py``) registers exactly one experiment
  once the registry is loaded — a module missing from the package's
  imports registers none, and a duplicate ``@register`` name raises at
  import, which this lint surfaces as a problem instead of a stack trace;
* ``EXPERIMENTS.md``'s "Experiment index" table lists exactly the
  registered names, so ``python -m repro.orchestrate list`` and the docs
  cannot drift.

Runs standalone (``python scripts/check_experiment_registry.py``), inside
``scripts/lint.py``, and inside tier-1 (``tests/test_lint.py``).
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIGURES_DIR = REPO_ROOT / "src" / "repro" / "experiments"
NOT_FIGURES = {"__init__", "common"}

INDEX_HEADING = "## Experiment index"


def documented_names(experiments_md: str | None = None) -> list[str]:
    """Experiment ids listed in EXPERIMENTS.md's index table."""
    if experiments_md is None:
        experiments_md = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    if INDEX_HEADING not in experiments_md:
        return []
    section = experiments_md.split(INDEX_HEADING, 1)[1]
    # Stop at the next heading; collect the first table column's code spans.
    section = re.split(r"\n## ", section, 1)[0]
    names = []
    for line in section.splitlines():
        match = re.match(r"\|\s*`([a-z0-9_]+)`\s*\|", line)
        if match:
            names.append(match.group(1))
    return names


def check(experiments_md: str | None = None) -> list[str]:
    """Return one problem string per registry/docs invariant violation."""
    problems = []
    try:
        from repro.orchestrate import registry

        reg = registry()
    except ValueError as exc:  # duplicate @register raises ValueError
        return [f"experiment registry failed to build: {exc}"]
    registered = set(reg)

    modules = [cls.__module__ for cls in reg.values()]
    for path in sorted(FIGURES_DIR.glob("*.py")):
        if path.stem in NOT_FIGURES:
            continue
        count = modules.count(f"repro.experiments.{path.stem}")
        if count != 1:
            problems.append(
                f"figure module {path.stem!r} registers {count} experiments; "
                "each must register exactly one (and be imported by "
                "repro.experiments)"
            )

    if experiments_md is None and not (REPO_ROOT / "EXPERIMENTS.md").is_file():
        problems.append("EXPERIMENTS.md is missing")
        return problems
    documented = documented_names(experiments_md)
    if not documented:
        problems.append(
            f"EXPERIMENTS.md has no {INDEX_HEADING!r} table; document every "
            "registered experiment there"
        )
        return problems
    counts = {name: documented.count(name) for name in documented}
    for name, count in sorted(counts.items()):
        if count > 1:
            problems.append(
                f"EXPERIMENTS.md index lists {name!r} {count} times; every "
                "experiment must appear exactly once"
            )
    for name in sorted(registered - set(documented)):
        problems.append(
            f"experiment {name!r} is registered but missing from "
            "EXPERIMENTS.md's index table"
        )
    for name in sorted(set(documented) - registered):
        problems.append(
            f"EXPERIMENTS.md index lists {name!r} but no such experiment is "
            "registered (python -m repro.orchestrate list)"
        )
    return problems


def main() -> int:
    problems = check()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} experiment-registry problem(s)")
        return 1
    print("experiment registry: registered ids and EXPERIMENTS.md index agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
