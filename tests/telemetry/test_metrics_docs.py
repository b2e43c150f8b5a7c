"""docs/METRICS.md must document every registered metric (and nothing else).

Runs the same check as ``scripts/check_metrics_docs.py`` so the doc-sync
lint is part of tier-1: adding a metric without documenting it (or
documenting a metric that no longer exists) fails here.
"""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "check_metrics_docs.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_metrics_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_metrics_doc_in_sync():
    checker = load_checker()
    problems = checker.check()
    assert problems == [], "\n".join(problems) + (
        "\n\nRegenerate with: python scripts/check_metrics_docs.py --write"
    )


def test_catalog_covers_every_subsystem():
    from repro.telemetry import metrics_catalog

    names = set(metrics_catalog().names())
    roots = {name.split(".", 1)[0] for name in names}
    assert roots == {
        "core", "frontend", "uarch", "memory", "parallel", "serve", "multicore",
    }
    # Spot-check one metric per ISSUE-listed structure family.
    for expected in (
        "core.cycles",
        "frontend.btb.lookups",
        "uarch.rob.occupancy",
        "uarch.lsq.forwards",
        "uarch.ports.alu_issued",
        "memory.llc.misses",
        "memory.mshr.allocations",
        "memory.dram.row_hits",
        "multicore.llc.xcore_evictions",
    ):
        assert expected in names, f"{expected} missing from catalog"
