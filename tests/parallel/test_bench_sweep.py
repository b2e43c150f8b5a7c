"""scripts/bench_sweep.py: the recorded evidence must hold at any scale."""

from __future__ import annotations

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "bench_sweep.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_records_full_warm_hit_rate(tmp_path):
    bench = load_bench()
    output = tmp_path / "BENCH_sweep.json"
    rc = bench.main([
        "--workloads", "mcf,lbm",
        "--scale", "0.05",
        "--jobs", "2",
        "--output", str(output),
        "--work-dir", str(tmp_path / "work"),
        "--engine-workloads", "mcf",
        "--engine-modes", "ooo",
        "--engine-scale", "0.05",
        "--engine-repeats", "1",
        "--no-doc-rewrite",
    ])
    assert rc == 0

    record = json.loads(output.read_text())
    assert record["cells"] == 4
    assert record["cache_hits"] == 4  # every warm cell answered by the cache
    assert record["warm_hit_rate"] == 1.0
    assert record["warm_wall_s"] < record["cold_wall_s"]
    assert record["speedup_warm_over_cold"] > 1
    assert record["engines"]["digests_match"] is True


def test_bench_records_sampled_vs_full_section(tmp_path):
    bench = load_bench()
    row = bench.bench_sampled_vs_full("mcf", 0.5, "smarts:500/2000")
    for key in (
        "workload", "scale", "sample", "full_wall_s", "sampled_wall_s",
        "wall_speedup", "full_ipc", "sampled_ipc", "abs_ipc_error_pct",
        "full_cycles", "detailed_cycles", "detailed_cycle_reduction",
    ):
        assert key in row
    assert row["detailed_cycles"] < row["full_cycles"]
    assert [order["first"] for order in row["orders"]] == ["full", "sampled"]


def test_bench_records_engines_section():
    bench = load_bench()
    section = bench.bench_engines(["mcf"], ["ooo", "crisp"], 0.1, 1)
    assert section["digests_match"] is True
    assert len(section["rows"]) == 2
    for row in section["rows"]:
        for key in (
            "workload", "mode", "cycles", "obj_wall_s", "array_wall_s",
            "obj_cycles_per_s", "array_cycles_per_s", "speedup",
        ):
            assert key in row
        assert row["cycles"] > 0
    assert section["max_speedup"] == max(r["speedup"] for r in section["rows"])
    assert section["geomean_speedup"] is not None
