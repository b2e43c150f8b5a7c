#!/usr/bin/env python
"""Benchmark the sweep executor: wall-clock, jobs, and cache hit-rate.

Runs the same (workload x mode) ``suite`` experiment twice through
``repro.orchestrate.execute_run`` against one result cache — a *cold*
pass that simulates every cell and a *warm* pass that should answer every
cell from the cache — and records both to ``BENCH_sweep.json``:

```bash
PYTHONPATH=src python scripts/bench_sweep.py --workloads mcf,lbm --jobs 4
```

The recorded warm/cold ratio is the acceptance evidence for the parallel
layer (docs/PARALLEL.md): identical per-cell results, every warm lookup a
hit, and a wall-clock drop.

A second section benchmarks sampled simulation (docs/SAMPLING.md): one
full detailed run vs a ``--sample`` run of the same workload, each from
its own freshly built (not yet emulated) input and timed in both orders,
recording wall-clock for both, the detailed-cycle reduction, and the
absolute IPC error — the acceptance evidence for the sampling layer.

A third section races the two cycle-model engines (docs/ENGINE.md): each
workload runs in detail under ``--engine=obj`` and ``--engine=array``
(same trace object, best-of-``--engine-repeats`` wall-clock after one
warmup run each), asserting identical SimStats digests and recording
wall-clock, cycles/s, and the array/obj speedup per cell — the acceptance
evidence for the array engine. The same rows regenerate the comparison
table in docs/ENGINE.md (``scripts/check_engine_docs.py --write``).

A fourth section benchmarks a *generated* workload (docs/WORKGEN.md): one
``gen:`` cell run cold then warm against its own cache, recording the
compile (name -> program) cost and proving generated cells cache like any
named workload.

A fifth section benchmarks a *co-run* cell (docs/MULTICORE.md): one
2-core mix lowered to a single cell, run cold then warm against its own
cache, recording wall-clock, the warm cache hit, and the per-core IPCs —
proving an N-core co-run is an ordinary cacheable citizen of the
parallel layer.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def run_pass(workloads, modes, scale, jobs, cache, out):
    """One ``suite`` run into a fresh run dir under ``out``."""
    from repro.orchestrate import execute_run
    from repro.orchestrate.experiment import SuiteMatrix

    results = {}

    def record(key, result):
        if result.ok:
            results[result.spec.label()] = (
                result.ipc, result.require_stats().cycles)

    start = time.perf_counter()
    summary = execute_run(
        SuiteMatrix(scale=scale, workloads=workloads, modes=modes),
        out=out, jobs=jobs, cache=cache, on_cell=record,
    )
    elapsed = time.perf_counter() - start
    if summary["failed"]:
        raise SystemExit(f"{summary['failed']} sweep cells failed; see "
                         f"{summary['run_dir']}/report.md")
    return elapsed, results


def bench_sampled_vs_full(workload_name: str, scale: float, sample: str) -> dict:
    """Time one full detailed run against a sampled run of the same cell.

    Both sides start from the same state: a freshly built workload that
    has not been emulated, so each pays for its own emulation and decode
    and neither reuses a trace the other memoized. Both code paths first
    run once untimed at a small scale, so neither timed run pays for a
    lazy import. Both orders are timed (full first, then sampled first,
    each run on a new workload); the top-level wall-clocks are the means
    over the two orders.
    """
    from repro.sampling import parse_sample, simulate_sampled
    from repro.sim import simulate
    from repro.workloads import get_workload

    def run_full(at_scale=scale):
        workload = get_workload(workload_name, scale=at_scale)
        start = time.perf_counter()
        stats = simulate(workload, "ooo").stats
        return time.perf_counter() - start, stats

    def run_sampled(at_scale=scale):
        workload = get_workload(workload_name, scale=at_scale)
        start = time.perf_counter()
        est = simulate_sampled(workload, "ooo", plan=parse_sample(sample))
        return time.perf_counter() - start, est

    run_full(0.05)
    run_sampled(0.05)
    orders = []
    for first in ("full", "sampled"):
        if first == "full":
            full_s, full = run_full()
            sampled_s, est = run_sampled()
        else:
            sampled_s, est = run_sampled()
            full_s, full = run_full()
        orders.append({
            "first": first,
            "full_wall_s": round(full_s, 3),
            "sampled_wall_s": round(sampled_s, 3),
            "wall_speedup": round(full_s / sampled_s, 2) if sampled_s else None,
        })
    full_s = sum(o["full_wall_s"] for o in orders) / len(orders)
    sampled_s = sum(o["sampled_wall_s"] for o in orders) / len(orders)

    error = abs(est.ipc - full.ipc) / full.ipc if full.ipc else 0.0
    return {
        "workload": workload_name,
        "scale": scale,
        "sample": sample,
        "full_wall_s": round(full_s, 3),
        "sampled_wall_s": round(sampled_s, 3),
        "wall_speedup": round(full_s / sampled_s, 2) if sampled_s else None,
        "orders": orders,
        "full_ipc": round(full.ipc, 4),
        "sampled_ipc": round(est.ipc, 4),
        "abs_ipc_error_pct": round(100 * error, 2),
        "full_cycles": full.cycles,
        "detailed_cycles": est.detailed_cycles,
        "detailed_cycle_reduction": round(full.cycles / est.detailed_cycles, 2)
        if est.detailed_cycles else None,
    }


def bench_engines(workloads, modes, scale: float, repeats: int) -> dict:
    """Race the obj and array engines over detailed cells (docs/ENGINE.md).

    One warmup run per engine precedes timing (it also decodes the trace
    once, which the array engine memoizes on it, and proves the digests
    match); the recorded wall-clock is the best of ``repeats`` timed runs.
    """
    from repro.parallel import CellSpec
    from repro.parallel.executor import cell_annotation
    from repro.sim import simulate
    from repro.workloads import get_workload

    rows = []
    for name in workloads:
        workload = get_workload(name, scale=scale)
        workload.trace()
        for mode in modes:
            if mode not in ("ooo", "crisp"):
                continue  # engine rows cover the two headline modes
            critical = cell_annotation(CellSpec(name, mode, scale=scale))
            wall = {}
            digest = {}
            cycles = 0
            for engine in ("obj", "array"):
                stats = simulate(workload, mode, engine=engine,
                                 critical_pcs=critical).stats
                digest[engine] = stats.digest()
                cycles = stats.cycles
                best = None
                for _ in range(repeats):
                    start = time.perf_counter()
                    simulate(workload, mode, engine=engine, critical_pcs=critical)
                    elapsed = time.perf_counter() - start
                    if best is None or elapsed < best:
                        best = elapsed
                wall[engine] = best
            if digest["obj"] != digest["array"]:
                raise SystemExit(
                    f"engine digests diverge for {name}/{mode}: "
                    f"{digest['obj']} != {digest['array']}"
                )
            rows.append({
                "workload": name,
                "mode": mode,
                "cycles": cycles,
                "obj_wall_s": round(wall["obj"], 3),
                "array_wall_s": round(wall["array"], 3),
                "obj_cycles_per_s": int(cycles / wall["obj"]),
                "array_cycles_per_s": int(cycles / wall["array"]),
                "speedup": round(wall["obj"] / wall["array"], 2),
            })
    speedups = [row["speedup"] for row in rows]
    geomean = None
    if speedups:
        product = 1.0
        for s in speedups:
            product *= s
        geomean = round(product ** (1.0 / len(speedups)), 2)
    return {
        "workloads": list(workloads),
        "scale": scale,
        "repeats": repeats,
        "digests_match": True,
        "rows": rows,
        "max_speedup": max(speedups) if speedups else None,
        "geomean_speedup": geomean,
    }


def bench_generated(gen_name: str, scale: float, work_dir) -> dict:
    """One generated-workload cell (docs/WORKGEN.md), cold vs warm.

    The generated path adds a compile step (name -> program + memory image)
    in front of simulation; this section records that build cost and proves
    a ``gen:`` cell is an ordinary cacheable citizen of the parallel layer —
    the warm pass must answer from the cache like any named workload.
    """
    from repro.parallel import CellSpec, ResultCache, run_cells
    from repro.workgen import parse_name, workload_digest
    from repro.workloads import get_workload

    parse_name(gen_name)  # fail fast on a non-canonical spelling
    start = time.perf_counter()
    workload = get_workload(gen_name, scale=scale)
    build_s = time.perf_counter() - start

    cache = ResultCache(str(pathlib.Path(work_dir) / "gen_cache"))
    spec = CellSpec(workload=gen_name, mode="ooo", scale=scale)
    start = time.perf_counter()
    cold = run_cells([spec], cache=cache)[0]
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_cells([spec], cache=cache)[0]
    warm_s = time.perf_counter() - start
    if not warm.from_cache:
        raise SystemExit(f"warm generated cell missed the cache: {gen_name}")
    if warm.ipc != cold.ipc:
        raise SystemExit(
            f"warm generated cell diverged: {warm.ipc} != {cold.ipc}"
        )
    return {
        "workload": gen_name,
        "scale": scale,
        "static_insts": len(workload.program.insts),
        "workload_digest": workload_digest(workload),
        "build_wall_s": round(build_s, 3),
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "warm_from_cache": True,
        "ipc": round(cold.ipc, 4),
    }


def bench_multicore(mix: str, scale: float, work_dir) -> dict:
    """One 2-core co-run cell (docs/MULTICORE.md), cold vs warm.

    The co-run path adds the shared LLC/DRAM arbitration in front of the
    per-core pipelines; this section proves the composite cell keys are
    stable (warm pass answers from the cache) and records the per-core
    IPC split under contention.
    """
    from repro.multicore import corun_cell, corun_extra, parse_mix
    from repro.parallel import ResultCache, run_cells

    spec = corun_cell(parse_mix(mix), scale=scale)
    cache = ResultCache(str(pathlib.Path(work_dir) / "multicore_cache"))
    start = time.perf_counter()
    cold = run_cells([spec], cache=cache)[0]
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_cells([spec], cache=cache)[0]
    warm_s = time.perf_counter() - start
    if not warm.from_cache:
        raise SystemExit(f"warm co-run cell missed the cache: {mix}")
    if warm.ipc != cold.ipc:
        raise SystemExit(f"warm co-run cell diverged: {warm.ipc} != {cold.ipc}")
    extra = corun_extra(cold)
    multicore = extra["multicore"]
    core_ipcs = [
        round(core["retired"] / core["cycles"], 4) if core["cycles"] else 0.0
        for core in extra["per_core"]
    ]
    return {
        "mix": mix,
        "scale": scale,
        "ncores": multicore["ncores"],
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "warm_from_cache": True,
        "aggregate_ipc": round(cold.ipc, 4),
        "core_ipcs": core_ipcs,
        "llc_hits": multicore["llc_hits"],
        "llc_accesses": multicore["llc_accesses"],
        "dram_requests": multicore["dram_requests"],
        "dram_bus_stall_cycles": multicore["dram_bus_stall_cycles"],
        "pool_peak_occupancy": multicore["pool_peak_occupancy"],
    }


#: The CI smoke slice of the engine race: one fast cell, ooo only.
SMOKE_WORKLOADS = ("deepsjeng",)
SMOKE_MODES = ("ooo",)


def run_smoke(floor: float, repeats: int) -> int:
    """CI's engine-speedup smoke: one cell, digests must match, and the
    array engine must hold at least ``floor``x wall-clock (the recorded
    acceptance number is >=5x at full scale; the default 3x absorbs
    CI-runner noise). Writes nothing."""
    section = bench_engines(list(SMOKE_WORKLOADS), list(SMOKE_MODES), 1.0, repeats)
    for row in section["rows"]:
        print(row)
        if row["speedup"] < floor:
            raise SystemExit(
                f"array engine below {floor}x on "
                f"{row['workload']}/{row['mode']}: {row}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: engine-race section only, single ooo cell, assert "
        "the array-engine speedup floor, write no files",
    )
    parser.add_argument(
        "--smoke-floor", type=float, default=3.0, metavar="X",
        help="minimum array/obj speedup --smoke accepts (default: 3.0)",
    )
    parser.add_argument("--workloads", default="mcf,lbm,deepsjeng,xz")
    parser.add_argument("--modes", default="ooo,crisp")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_sweep.json"), metavar="PATH"
    )
    parser.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="scratch directory for cache + run dirs (default: temp)",
    )
    parser.add_argument(
        "--sample", default="smarts:1000/10000", metavar="SPEC",
        help="plan for the sampled-vs-full section (docs/SAMPLING.md)",
    )
    parser.add_argument(
        "--sample-workload", default="mcf",
        help="workload for the sampled-vs-full section",
    )
    parser.add_argument(
        "--sample-scale", type=float, default=4.0,
        help="scale for the sampled-vs-full section (acceptance: >= 4)",
    )
    parser.add_argument(
        "--engine-workloads", default="mcf,lbm,deepsjeng,xz",
        help="workloads for the engine-race section (docs/ENGINE.md)",
    )
    parser.add_argument(
        "--engine-modes", default="ooo,crisp",
        help="modes for the engine-race section",
    )
    parser.add_argument(
        "--engine-scale", type=float, default=1.0,
        help="scale for the engine-race section (acceptance: >= 5x somewhere)",
    )
    parser.add_argument(
        "--engine-repeats", type=int, default=3,
        help="timed runs per engine per cell; best (min) wall-clock is kept",
    )
    parser.add_argument(
        "--gen-spec", default="gen:pcd4,mlp2,ent0.50,ws256,sl3,lf0.30#0",
        metavar="NAME",
        help="generated workload for the workgen section (docs/WORKGEN.md)",
    )
    parser.add_argument(
        "--gen-scale", type=float, default=0.5,
        help="scale for the generated-workload section",
    )
    parser.add_argument(
        "--corun-mix", default="pointer_chase+img_dnn", metavar="MIX",
        help="2-core mix for the co-run section (docs/MULTICORE.md)",
    )
    parser.add_argument(
        "--corun-scale", type=float, default=0.3,
        help="scale for the co-run section",
    )
    parser.add_argument(
        "--no-doc-rewrite", action="store_true",
        help="skip regenerating the docs/ENGINE.md comparison table",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke(args.smoke_floor, args.engine_repeats)

    import tempfile

    from repro.parallel import ResultCache

    workloads = args.workloads.split(",")
    modes = args.modes.split(",")
    work_dir = pathlib.Path(args.work_dir or tempfile.mkdtemp(prefix="bench_sweep_"))
    work_dir.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(str(work_dir / "cache"))

    cold_s, cold_results = run_pass(
        workloads, modes, args.scale, args.jobs, cache, work_dir / "runs"
    )
    warm_s, warm_results = run_pass(
        workloads, modes, args.scale, args.jobs, cache, work_dir / "runs"
    )
    if warm_results != cold_results:
        raise SystemExit("warm pass produced different per-cell results")

    cells = len(workloads) * len(modes)
    record = {
        "benchmark": "sweep",
        "workloads": workloads,
        "modes": modes,
        "scale": args.scale,
        "jobs": args.jobs,
        "cells": cells,
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "speedup_warm_over_cold": round(cold_s / warm_s, 1) if warm_s else None,
        "cache_hits": cache.stats.hits,
        "cache_misses": cache.stats.misses,
        "warm_hit_rate": cache.stats.hits / cells if cells else 0.0,
        "sampled_vs_full": bench_sampled_vs_full(
            args.sample_workload, args.sample_scale, args.sample
        ),
        "generated": bench_generated(args.gen_spec, args.gen_scale, work_dir),
        "multicore": bench_multicore(args.corun_mix, args.corun_scale, work_dir),
        "engines": bench_engines(
            args.engine_workloads.split(","),
            args.engine_modes.split(","),
            args.engine_scale,
            args.engine_repeats,
        ),
    }
    pathlib.Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    if not args.no_doc_rewrite:
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_engine_docs", REPO_ROOT / "scripts" / "check_engine_docs.py"
        )
        engine_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(engine_docs)
        engine_docs.rewrite_doc(record["engines"])
    if record["cache_hits"] != cells:
        raise SystemExit(
            f"expected every warm cell to hit the cache: {record['cache_hits']}/{cells}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
