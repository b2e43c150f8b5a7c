"""CLI: ``python -m repro.multicore run --mix mcf@crisp+lbm --scale 0.3``.

Lowers one ``workload[@mode]+workload[@mode]`` mix to a single co-run
cell and executes it through the ordinary pooled/cached cell path
(:func:`~repro.parallel.executor.run_cells`), then prints the shared-
memory report: per-core IPC and LLC/DRAM shares, pool pressure, and
cross-core prefetcher effectiveness. ``--expect-cached`` turns the run
into a cache probe (exit 1 unless the cell came back warm) — the CI
multicore smoke uses it to assert the co-run cell key is stable.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cells import corun_cell, corun_extra
from .spec import CoRunSpec, CoreTask, parse_mix
from .stats import MulticoreStats


def _report(spec: CoRunSpec, result, extra: dict) -> str:
    multicore = MulticoreStats.from_dict(extra["multicore"])
    lines = [
        f"mix: {spec.label}",
        f"cell: {result.key}  cached: {result.from_cache}",
        f"cycles: {multicore.cycles}  aggregate IPC: {result.ipc:.3f}",
    ]
    header = (f"{'core':<6}{'workload':<34}{'IPC':>7}{'LLC acc':>10}"
              f"{'hit share':>11}{'DRAM share':>12}{'occupancy':>11}")
    lines.append(header)
    for core, task in enumerate(spec.cores):
        lines.append(
            f"{core:<6}{task.label[:33]:<34}{multicore.core_ipc(core):>7.3f}"
            f"{multicore.core_llc_accesses[core]:>10}"
            f"{multicore.llc_hit_share(core):>11.3f}"
            f"{multicore.dram_share(core):>12.3f}"
            f"{multicore.occupancy_share(core):>11.3f}"
        )
    lines.append(
        f"LLC: {multicore.llc_hits}/{multicore.llc_accesses} hits, "
        f"{multicore.llc_xcore_evictions} cross-core evictions; "
        f"DRAM: {multicore.dram_requests} requests, "
        f"{multicore.dram_bus_stall_cycles} bus-stall cycles"
    )
    lines.append(
        f"LLC MSHR pool: {multicore.pool_allocations} allocations, "
        f"peak {multicore.pool_peak_occupancy}, "
        f"{multicore.pool_full_stalls} full stalls"
    )
    if multicore.xpf_prefetches:
        lines.append(
            f"xcore prefetcher: {multicore.xpf_prefetches} issued, "
            f"{multicore.xpf_fills} filled, {multicore.xpf_useful} useful"
        )
    return "\n".join(lines)


def cmd_run(args) -> int:
    from ..parallel.executor import run_cells

    spec = parse_mix(
        args.mix,
        llc_xcore=args.llc_xcore,
        llc_mshrs_per_core=args.llc_mshrs,
        shared_llc_size=args.shared_llc_size,
    )
    if args.no_prefetchers:
        spec = CoRunSpec(
            cores=tuple(
                CoreTask(t.workload, t.mode, variant=t.variant,
                         critical_pcs=t.critical_pcs,
                         crisp_config=t.crisp_config, prefetchers=())
                for t in spec.cores
            ),
            llc_xcore=spec.llc_xcore,
            llc_mshrs_per_core=spec.llc_mshrs_per_core,
            shared_llc_size=spec.shared_llc_size,
        )
    cell = corun_cell(spec, scale=args.scale, engine=args.engine)
    cache = None
    if not args.no_cache:
        from ..parallel.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    [result] = run_cells([cell], jobs=args.jobs, cache=cache)
    if not result.ok:
        print(f"error: co-run cell failed: {result.error}", file=sys.stderr)
        return 1
    extra = corun_extra(result)
    if args.json:
        print(json.dumps({
            "mix": spec.label,
            "key": result.key,
            "from_cache": result.from_cache,
            "ipc": result.ipc,
            "stats": result.record["stats"],
            "corun": extra,
        }, indent=1))
    else:
        print(_report(spec, result, extra))
    if args.expect_cached and not result.from_cache:
        print("error: --expect-cached but the cell ran cold", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.multicore",
        description="N-core co-run simulation (docs/MULTICORE.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one mix as a pooled co-run cell")
    run_p.add_argument(
        "--mix", required=True,
        help="co-run mix: workload[@mode]+workload[@mode], e.g. mcf@crisp+lbm",
    )
    run_p.add_argument("--scale", type=float, default=1.0,
                       help="iteration scale factor (default: 1.0)")
    run_p.add_argument("--llc-xcore", action="store_true",
                       help="enable the cross-core LLC prefetcher")
    run_p.add_argument("--no-prefetchers", action="store_true",
                       help="disable every core's private hardware prefetchers")
    run_p.add_argument("--llc-mshrs", type=int, default=8,
                       help="shared LLC MSHR pool entries per core (default: 8)")
    run_p.add_argument("--shared-llc-size", type=int, default=None,
                       help="shared LLC bytes (default: the config's llc_size)")
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.add_argument("--cache-dir", default=".repro_cache")
    run_p.add_argument("--no-cache", action="store_true")
    run_p.add_argument("--expect-cached", action="store_true",
                       help="exit 1 unless the result came from the cache")
    run_p.add_argument("--engine", choices=("obj", "array"), default=None)
    run_p.add_argument("--json", action="store_true")
    run_p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
