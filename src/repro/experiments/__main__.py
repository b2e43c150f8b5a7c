"""CLI: ``python -m repro.experiments <id> [--scale S] [--jobs N] ...``.

Execution flags shared by every experiment (docs/PARALLEL.md): ``--jobs``
fans simulation cells out over a process pool, ``--cache-dir`` points at
the content-addressed result cache (default ``.repro_cache``; re-running
an experiment re-simulates only changed cells), ``--no-cache`` disables it,
and ``--engine=obj|array`` picks the cycle-model implementation
(docs/ENGINE.md; digest-identical results, so it composes freely with the
cache and ``--sample``). Resumable runs — run dirs, ``--resume`` and the
per-cell failure flags — go through ``python -m repro.orchestrate run``
(docs/ORCHESTRATION.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import EXPERIMENTS, run_experiment


def build_cache(args):
    from ..parallel.cache import ResultCache

    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper table/figure) or 'all'; resumable runs "
        "go through python -m repro.orchestrate run (docs/ORCHESTRATION.md)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    parser.add_argument(
        "--workloads",
        type=str,
        default="",
        help="comma-separated workload subset (default: full suite)",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print markdown tables instead of aligned text",
    )
    execution = parser.add_argument_group("execution options (docs/PARALLEL.md)")
    execution.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation cells (default: 1, in-process)",
    )
    execution.add_argument(
        "--cache-dir", default=".repro_cache", metavar="DIR",
        help="content-addressed result cache directory (default: .repro_cache)",
    )
    execution.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (always re-simulate)",
    )
    execution.add_argument(
        "--sample", default="off", metavar="SPEC",
        help="sampled simulation: off | smarts:<detail>/<period> | "
        "simpoint:<k>[/<interval>] (docs/SAMPLING.md; default: off)",
    )
    execution.add_argument(
        "--engine", choices=("obj", "array"), default=None,
        help="cycle-model implementation for every cell (docs/ENGINE.md); "
        "default: REPRO_ENGINE env var, then 'array' -- results are identical",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.sample != "off":
        from ..sampling import parse_sample

        try:
            parse_sample(args.sample)
        except ValueError as exc:
            parser.error(str(exc))

    from .common import execution_context

    names = [args.experiment] if args.experiment != "all" else sorted(EXPERIMENTS)
    with execution_context(jobs=args.jobs, cache=build_cache(args),
                           sample=args.sample, engine=args.engine):
        for name in names:
            kwargs = {}
            if name not in ("table1",):
                kwargs["scale"] = args.scale
            takes_no_workloads = (
                "table1", "fig1", "sec31", "discussion_smt", "discussion_division",
            )
            if args.workloads and name not in takes_no_workloads:
                kwargs["workloads"] = args.workloads.split(",")
            start = time.time()
            result = run_experiment(name, **kwargs)
            print(result.to_markdown() if args.markdown else result.to_text())
            print(f"[{name} took {time.time() - start:.0f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
