"""CLI: ``python -m repro.orchestrate {list,run,report}``.

The one way to run an experiment (docs/ORCHESTRATION.md): ``list``
prints the experiment registry, ``run`` lowers one experiment's Target ×
Instance selection to cells, executes them through the shared
pool/cache/sampling stack, and writes a per-run result directory,
``report`` re-renders a run directory's tables without simulating a
cell (re-planning still runs a plan-time FDO flow, as in
ablation_perfect_bp), and like ``run`` exits 1 when cells are failed or
missing.

Execution flags (docs/PARALLEL.md): ``--jobs``,
``--cache-dir``/``--no-cache``, ``--sample``, ``--engine``; ``run``
adds the per-cell failure knobs of
docs/RESILIENCE.md (``--retries``, ``--retry-backoff``, ``--deadline``,
``--cycle-budget``, ``--invariants``, ``--crash-dir``). ``run --resume``
continues the latest (or named) run directory, simulating every cell
that is not ``done`` — after verifying the run's recorded identity
matches this invocation. ``run --resume --run-dir DIR`` without
``--experiment`` rebuilds the experiment from DIR's manifest, which is
how a drained serve job is finished (docs/SERVE.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import experiment_names, get_experiment, registry
from .rundir import RunIdentityError, latest_run_dir, load_manifest
from .runs import execute_run, recorded_experiment, report_run


def build_cache(args):
    from ..parallel.cache import ResultCache

    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def cmd_list(args) -> int:
    entries = [{"name": name, "title": cls.title}
               for name, cls in sorted(registry().items())]
    if args.json:
        print(json.dumps(entries, indent=1))
        return 0
    width = max(len(e["name"]) for e in entries)
    for entry in entries:
        print(f"{entry['name']:<{width}}  {entry['title']}")
    return 0


def build_policy(args):
    """The RetryPolicy of --retries/--retry-backoff/--deadline."""
    from ..resilience.policy import RetryPolicy

    return RetryPolicy(
        retries=args.retries,
        backoff_base=args.retry_backoff,
        deadline=args.deadline,
    )


def make_experiment(args):
    if args.experiment is None:
        return recorded_experiment(load_manifest(args.run_dir))
    kwargs = {
        "scale": 1.0 if args.scale is None else args.scale,
        "seeds": 1 if args.seeds is None else args.seeds,
    }
    if args.workloads:
        kwargs["workloads"] = args.workloads.split(",")
    return get_experiment(args.experiment)(**kwargs)


def cmd_run(args) -> int:
    experiment = make_experiment(args)
    summary = execute_run(
        experiment,
        out=args.out,
        run_dir=args.run_dir,
        resume=args.resume,
        jobs=args.jobs,
        cache=build_cache(args),
        sample=args.sample,
        engine=args.engine,
        policy=build_policy(args),
        cycle_budget=args.cycle_budget,
        invariants=args.invariants,
        crash_dir=args.crash_dir,
        on_cell=lambda key, result: print(
            f"  {result.spec.label()}: {result.status}"
            f"{' (cached)' if result.from_cache else ''}",
            flush=True,
        ),
    )
    print(f"run dir: {summary['run_dir']}")
    figure = summary["figure"]
    if figure is not None:
        print(figure.to_markdown() if args.markdown else figure.to_text())
    aggregate = summary["aggregate"]
    if aggregate is not None and (args.aggregate or figure is None):
        print(aggregate.to_markdown() if args.markdown else aggregate.to_text())
    if summary["failed"]:
        print(f"{summary['failed']} cell(s) failed; see "
              f"{summary['run_dir']}/report.md", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    run_dir = args.run_dir
    if run_dir is None:
        if not args.experiment:
            print("report needs --run-dir or --experiment", file=sys.stderr)
            return 2
        run_dir = latest_run_dir(args.out, args.experiment)
        if run_dir is None:
            print(f"no runs for {args.experiment!r} under {args.out}",
                  file=sys.stderr)
            return 1
    report = report_run(run_dir)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print((Path(run_dir) / "report.md").read_text())
    return 1 if report["failed"] else 0


def add_selection_args(parser) -> None:
    # Selection flags default to None so that "not given" is visible:
    # a manifest resume must refuse them rather than ignore them.
    parser.add_argument(
        "--experiment", default=None,
        choices=experiment_names(), metavar="NAME",
        help="experiment id from the registry ('list' prints them); "
        "required unless --resume --run-dir DIR reuses DIR's manifest",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default: 1.0)")
    parser.add_argument(
        "--workloads", default=None,
        help="comma-separated workload subset (default: experiment's own)",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="seed replicas per workload (ref, ref#1, ...); reports show "
        "median/stdev over them (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate",
        description="Declarative experiment orchestration "
        "(docs/ORCHESTRATION.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="print the experiment registry")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable registry listing")
    list_p.set_defaults(func=cmd_list)

    run_p = sub.add_parser("run", help="run one experiment into a run dir")
    add_selection_args(run_p)
    run_p.add_argument("--out", default="runs", metavar="DIR",
                       help="root of run directories (default: runs)")
    run_p.add_argument("--run-dir", default=None, metavar="DIR",
                       help="explicit run directory (default: allocate "
                       "<out>/<experiment>/run-NNN)")
    run_p.add_argument("--resume", action="store_true",
                       help="continue the latest (or --run-dir) run, "
                       "simulating only missing cells")
    run_p.add_argument("--markdown", action="store_true",
                       help="print markdown tables instead of aligned text")
    run_p.add_argument("--aggregate", action="store_true",
                       help="also print the seed-aggregate table")
    execution = run_p.add_argument_group("execution options (docs/PARALLEL.md)")
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
        help="cycle-model implementation (docs/ENGINE.md); default: "
        "REPRO_ENGINE env var, then 'array' -- results are identical",
    )
    failure = run_p.add_argument_group("per-cell failure options "
                                       "(docs/RESILIENCE.md)")
    failure.add_argument(
        "--retries", type=int, default=1,
        help="retry budget for transient per-cell failures (default: 1)",
    )
    failure.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base delay before the first retry; doubles per retry with "
        "deterministic seeded jitter (default: 0, retry immediately)",
    )
    failure.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for one cell's attempts: stop retrying a "
        "cell once this much time has been spent on it (default: none)",
    )
    failure.add_argument(
        "--cycle-budget", type=int, default=None, metavar="CYCLES",
        help="simulated-cycle budget per cell (deterministic timeout; "
        "works in pool workers and off the main thread)",
    )
    failure.add_argument(
        "--invariants", choices=("off", "periodic", "full"), default="off",
        help="invariant audit cadence for every cell (default: off)",
    )
    failure.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="write crash bundles for failed cells to DIR",
    )
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser(
        "report", help="re-render a run directory's report without simulating "
        "its cells (re-planning re-runs plan-time FDO flows)"
    )
    report_p.add_argument("--run-dir", default=None, metavar="DIR",
                          help="run directory to report")
    report_p.add_argument("--experiment", default=None,
                          choices=experiment_names(), metavar="NAME",
                          help="with --out: report this experiment's latest run")
    report_p.add_argument("--out", default="runs", metavar="DIR",
                          help="root of run directories (default: runs)")
    report_p.add_argument("--json", action="store_true",
                          help="print report.json instead of report.md")
    report_p.set_defaults(func=cmd_report)
    return parser


def check_run_selection(parser, args) -> None:
    """Usage errors for a ``run`` without ``--experiment``: the run dir's
    manifest then supplies the selection, so no selection flag may be
    given."""
    if args.experiment is not None:
        return
    given = [f"--{name}" for name in ("scale", "workloads", "seeds")
             if getattr(args, name) is not None]
    if given:
        parser.error(f"{', '.join(given)} needs --experiment; a resume "
                     "without it reuses the run dir's recorded selection")
    if not (args.resume and args.run_dir):
        parser.error("run needs --experiment NAME, or --resume --run-dir "
                     "DIR to continue a recorded run")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        check_run_selection(parser, args)
    if getattr(args, "sample", "off") != "off":
        from ..sampling import parse_sample

        try:
            parse_sample(args.sample)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except (RunIdentityError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
