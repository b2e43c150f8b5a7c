"""CLI: ``python -m repro.orchestrate {list,run,report}``.

The declarative front door (docs/ORCHESTRATION.md): ``list`` prints the
experiment registry, ``run`` lowers one experiment's Target × Instance
selection to cells, executes them through the shared pool/cache/sampling
stack, and writes a per-run result directory, ``report`` re-renders a
run directory's tables without simulating.

Execution flags are the same set every experiment CLI takes
(docs/PARALLEL.md): ``--jobs``, ``--cache-dir``/``--no-cache``,
``--sample``, ``--engine``. ``run --resume`` continues the latest (or
named) run directory, simulating only missing cells — after verifying
the run's recorded identity matches this invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import experiment_names, get_experiment, registry
from .rundir import RunIdentityError, latest_run_dir
from .runs import execute_run, report_run


def build_cache(args):
    from ..parallel.cache import ResultCache

    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def cmd_list(args) -> int:
    entries = []
    for name, cls in sorted(registry().items()):
        entries.append({"name": name, "kind": cls.kind, "title": cls.title})
    if args.json:
        print(json.dumps(entries, indent=1))
        return 0
    width = max(len(e["name"]) for e in entries)
    for entry in entries:
        print(f"{entry['name']:<{width}}  {entry['kind']:<6}  {entry['title']}")
    return 0


def make_experiment(args):
    cls = get_experiment(args.experiment)
    kwargs = {"scale": args.scale, "seeds": args.seeds}
    if args.workloads:
        kwargs["workloads"] = args.workloads.split(",")
    return cls(**kwargs)


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
    return 0


def add_selection_args(parser) -> None:
    parser.add_argument(
        "--experiment", required=True,
        choices=experiment_names(), metavar="NAME",
        help="experiment id from the registry ('list' prints them)",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor")
    parser.add_argument(
        "--workloads", default="",
        help="comma-separated workload subset (default: experiment's own)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="seed replicas per workload (ref, ref#1, ...); reports show "
        "median/stdev over them (default: 1, bit-identical to legacy runs)",
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
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser(
        "report", help="re-render a run directory's report without simulating"
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
