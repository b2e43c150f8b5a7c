#!/usr/bin/env python
"""Lint: docs/METRICS.md must document exactly the registered metrics.

The source of truth is ``repro.telemetry.metrics_catalog()`` -- the registry
a default :class:`~repro.uarch.pipeline.Pipeline` populates at construction.
This script fails (exit 1) when a registered metric is missing from
docs/METRICS.md or the doc mentions a metric that no longer exists; run it
with ``--write`` to regenerate the reference table section from the live
registration metadata (name, kind, unit, owner, figure, description).

Runs standalone (``python scripts/check_metrics_docs.py``) and inside the
tier-1 test suite (``tests/telemetry/test_metrics_docs.py``).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "METRICS.md"

#: Metric names are matched as backticked table cells: | `a.b.c` | ...
_DOC_METRIC_RE = re.compile(r"^\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`\s*\|", re.M)

GENERATED_BEGIN = "<!-- BEGIN GENERATED METRICS TABLE (scripts/check_metrics_docs.py --write) -->"
GENERATED_END = "<!-- END GENERATED METRICS TABLE -->"

#: Paper-artifact labels used in the `figure` metadata, expanded for the doc.
FIGURE_LABELS = {
    "fig1": "Fig 1 (UPC timeline)",
    "fig4": "Fig 4 (slice size / load behaviour)",
    "fig7": "Fig 7 (IPC evaluation)",
    "fig8": "Fig 8 (branch slicing)",
    "fig9": "Fig 9 (RS/ROB sizing)",
    "fig12": "Fig 12 (code footprint)",
    "sec31": "Sec 3.1 (motivating MLP study)",
    "": "—",
}


def _catalog():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.telemetry import metrics_catalog

    return metrics_catalog()


def registered_names() -> set[str]:
    return set(_catalog().names())


def documented_names(text: str | None = None) -> set[str]:
    if text is None:
        text = DOC_PATH.read_text()
    return set(_DOC_METRIC_RE.findall(text))


def render_table() -> str:
    """The generated reference table, grouped by top-level subsystem."""
    registry = _catalog()
    groups: dict[str, list] = {}
    for metric in registry:
        groups.setdefault(metric.name.split(".", 1)[0], []).append(metric)
    lines = [GENERATED_BEGIN, ""]
    titles = {
        "core": "Core (pipeline-wide)",
        "frontend": "Front end",
        "uarch": "Back end (scheduler, ROB, LSQ, ports)",
        "memory": "Memory hierarchy",
        "parallel": "Parallel execution (result cache, process pool)",
        "serve": "Job server (admission, coalescing, supervision, drain)",
        "multicore": "Multicore co-run (shared LLC, DRAM contention, MSHR pool)",
    }
    for group in ("core", "frontend", "uarch", "memory", "parallel", "serve",
                  "multicore"):
        metrics = groups.pop(group, [])
        if not metrics:
            continue
        lines.append(f"### {titles.get(group, group)}")
        lines.append("")
        lines.append("| metric | kind | unit | owner | feeds | description |")
        lines.append("|---|---|---|---|---|---|")
        for m in sorted(metrics, key=lambda m: m.name):
            figure = FIGURE_LABELS.get(m.figure, m.figure)
            lines.append(
                f"| `{m.name}` | {m.kind} | {m.unit} | {m.owner} "
                f"| {figure} | {m.desc} |"
            )
        lines.append("")
    if groups:  # a new top-level group was registered; never drop it silently
        raise SystemExit(f"unknown metric groups {sorted(groups)}; extend titles")
    lines.append(GENERATED_END)
    return "\n".join(lines)


def rewrite_doc() -> None:
    """Regenerate the table section between the BEGIN/END markers."""
    text = DOC_PATH.read_text()
    begin = text.index(GENERATED_BEGIN)
    end = text.index(GENERATED_END) + len(GENERATED_END)
    DOC_PATH.write_text(text[:begin] + render_table() + text[end:])


def check() -> list[str]:
    """Return a list of human-readable problems (empty = in sync)."""
    problems = []
    if not DOC_PATH.exists():
        return [f"{DOC_PATH} does not exist; run with --write to create it"]
    registered = registered_names()
    documented = documented_names()
    for name in sorted(registered - documented):
        problems.append(f"registered metric not documented in docs/METRICS.md: {name}")
    for name in sorted(documented - registered):
        problems.append(f"docs/METRICS.md documents unregistered metric: {name}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the metrics table in docs/METRICS.md, then check",
    )
    args = parser.parse_args(argv)
    if args.write:
        rewrite_doc()
    problems = check()
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        count = len(registered_names())
        print(f"docs/METRICS.md in sync: {count} metrics documented")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
