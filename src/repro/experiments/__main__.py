"""CLI: ``python -m repro.experiments <id> [--scale S] [--jobs N] ...``.

Execution flags shared by every experiment (docs/PARALLEL.md): ``--jobs``
fans simulation cells out over a process pool, ``--cache-dir`` points at
the content-addressed result cache (default ``.repro_cache``; re-running
an experiment re-simulates only changed cells), ``--no-cache`` disables it,
and ``--engine=obj|array`` picks the cycle-model implementation
(docs/ENGINE.md; digest-identical results, so it composes freely with the
cache and ``--sample``).
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


def build_policy(args):
    """The sweep's RetryPolicy from --retries/--retry-backoff/--deadline."""
    from ..resilience.policy import RetryPolicy

    return RetryPolicy(
        retries=args.retries,
        backoff_base=args.retry_backoff,
        deadline=args.deadline,
    )


def run_sweep(args) -> int:
    from ..workloads import suite_names
    from .runner import SweepRunner

    workloads = args.workloads.split(",") if args.workloads else suite_names()
    runner = SweepRunner(
        workloads=workloads,
        modes=args.modes.split(","),
        checkpoint_path=args.checkpoint,
        scale=args.scale,
        retries=args.retries,
        policy=build_policy(args),
        cycle_budget=args.cycle_budget,
        invariants=args.invariants,
        crash_dir=args.crash_dir,
        jobs=args.jobs,
        cache=build_cache(args),
        sample=args.sample,
        engine=args.engine,
        on_cell=lambda key, cell: print(f"  {key}: {cell['status']}", flush=True),
    )
    state = runner.run(resume=args.resume, retry_failed=args.retry_failed)
    print(runner.summary())
    failed = sum(1 for c in state["cells"].values() if c["status"] != "done")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "sweep"],
        help="experiment id (paper table/figure), 'all', or 'sweep' "
        "(resumable suite sweep; docs/RESILIENCE.md)",
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
    sweep = parser.add_argument_group("sweep options")
    sweep.add_argument(
        "--checkpoint", default="sweep_checkpoint.json", metavar="PATH",
        help="checkpoint file for 'sweep' (one JSON cell per finished run)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume 'sweep' from the checkpoint, re-running only unfinished cells",
    )
    sweep.add_argument(
        "--retry-failed", action="store_true",
        help="with --resume, also re-run cells recorded as failed",
    )
    sweep.add_argument(
        "--modes", default="ooo,crisp",
        help="comma-separated modes for 'sweep' (default: ooo,crisp)",
    )
    sweep.add_argument(
        "--retries", type=int, default=1,
        help="retry budget for transient per-cell failures (default: 1)",
    )
    sweep.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base delay before the first retry; doubles per retry with "
        "deterministic seeded jitter (docs/RESILIENCE.md; default: 0, "
        "retry immediately)",
    )
    sweep.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for one cell's attempts: stop retrying a "
        "cell once this much time has been spent on it (default: none)",
    )
    sweep.add_argument(
        "--cycle-budget", type=int, default=None, metavar="CYCLES",
        help="simulated-cycle budget per sweep cell (deterministic timeout; "
        "works in pool workers, unlike the old wall-clock --timeout)",
    )
    sweep.add_argument(
        "--invariants", choices=("off", "periodic", "full"), default="off",
        help="invariant audit cadence for sweep cells",
    )
    sweep.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="write crash bundles for failed sweep cells to DIR",
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

    if args.experiment == "sweep":
        return run_sweep(args)

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
