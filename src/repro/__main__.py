"""Top-level CLI: ``python -m repro <command>``.

Commands:

* ``workloads``  -- list the evaluated suite with per-app characters
* ``simulate``   -- run one workload in one mode and print the stats of
  that cell (a crisp run takes the cell's FDO annotation)
* ``compare``    -- full train->annotate->evaluate comparison for one app
* ``diagnose``   -- ready->issue delay report under both schedulers
* ``autotune``   -- per-application threshold tuning (Section 5.5)

Paper tables and figures run through the orchestration CLI:
``python -m repro.orchestrate run --experiment <id>``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__


def cmd_workloads(args) -> int:
    from .workloads import REGISTRY, suite_names

    for name in suite_names(include_micro=True):
        print(f"{name:14s} {REGISTRY.describe(name)}")
    return 0


def cmd_simulate(args) -> int:
    from .parallel.cellkey import CellSpec
    from .parallel.executor import _shared_inputs, cell_annotation, cell_input
    from .resilience import SimulationError, Watchdog
    from .sim import simulate
    from .telemetry import EventTracer

    # The run is the cell of this spec: a crisp run takes the cell's
    # annotation, and --sample runs the sampled cell itself.
    spec = CellSpec(args.workload, args.mode, scale=args.scale,
                    variant=args.variant, invariants=args.invariants,
                    crash_dir=args.crash_dir, engine=args.engine)
    if args.sample != "off":
        return _simulate_sampled(args, spec)
    tracer = None
    if args.trace is not None:
        tracer = EventTracer(
            sample_interval=args.trace_interval, max_events=args.trace_events
        )
    watchdog = None
    if args.watchdog_cycles is not None or args.crash_dir is not None:
        kwargs = {"crash_dir": args.crash_dir}
        if args.watchdog_cycles is not None:
            kwargs["livelock_cycles"] = args.watchdog_cycles
        watchdog = Watchdog(**kwargs)
    try:
        # One input group, as under run_cells: a train-input crisp run
        # profiles the input it then simulates, building it once.
        with _shared_inputs():
            critical = cell_annotation(spec)
            workload = cell_input(spec)
        result = simulate(
            workload,
            args.mode,
            critical_pcs=critical,
            tracer=tracer,
            invariants=args.invariants,
            watchdog=watchdog,
            engine=args.engine,
        )
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    print(result.stats.summary())
    if tracer is not None:
        jsonl_path = f"{args.trace}.jsonl"
        chrome_path = f"{args.trace}.chrome.json"
        rows = tracer.write_jsonl(jsonl_path)
        events = tracer.write_chrome_trace(chrome_path)
        print(f"trace: {rows} rows -> {jsonl_path}")
        print(f"trace: {events} events -> {chrome_path} (open in chrome://tracing)")
    if args.report is not None:
        report = result.report()
        json_path = args.report.rsplit(".", 1)[0] + ".json"
        with open(args.report, "w") as handle:
            handle.write(report.to_markdown())
        with open(json_path, "w") as handle:
            handle.write(report.to_json())
        print(f"report: {args.report} (+ {json_path})")
    return 0


def _simulate_sampled(args, spec) -> int:
    """``simulate --sample=...``: the sampled cell's estimate instead of a
    full run."""
    from .parallel.executor import run_cells
    from .sampling import parse_sample

    if args.trace is not None or args.report is not None:
        print(
            "--trace/--report need a full run; drop --sample to use them",
            file=sys.stderr,
        )
        return 2
    try:
        parse_sample(args.sample)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    (cell,) = run_cells([spec], sample=args.sample)
    if not cell.ok:
        print(f"simulation failed: {cell.error}", file=sys.stderr)
        return 1
    print(cell.estimate.summary())
    print(cell.stats.summary())
    return 0


def cmd_compare(args) -> int:
    from .sim import compare_workload

    modes = ("ooo", "crisp") + (("ibda-1k", "ibda-inf") if args.ibda else ())
    cmp = compare_workload(args.workload, scale=args.scale, modes=modes)
    flow = cmp.crisp_result
    print(
        f"{args.workload}: {len(flow.classification.delinquent_loads)} delinquent "
        f"loads, {len(flow.classification.hard_branches)} hard branches, "
        f"{len(flow.critical_pcs)} tagged "
        f"({flow.annotation.critical_ratio:.1%} dynamic)"
    )
    for mode in modes:
        print(f"  {mode:10s} IPC {cmp.ipc(mode):.3f}  ({cmp.improvement_pct(mode):+.1f}%)")
    return 0


def cmd_diagnose(args) -> int:
    from .sim.diagnose import diagnose_workload

    print(diagnose_workload(args.workload, scale=args.scale))
    return 0


def cmd_autotune(args) -> int:
    from .core import autotune_threshold

    result = autotune_threshold(args.workload, scale=args.scale)
    print(result.summary())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=f"CRISP reproduction v{__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the evaluated workload suite")

    p = sub.add_parser("simulate", help="run one workload in one mode")
    p.add_argument("workload")
    p.add_argument("--mode", default="ooo", help="ooo | crisp | ibda-1k | ...")
    p.add_argument("--variant", default="ref")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument(
        "--sample", default="off", metavar="SPEC",
        help="sampled simulation: off | smarts:<detail>/<period> | "
        "simpoint:<k>[/<interval>] (docs/SAMPLING.md; default: off)",
    )
    p.add_argument(
        "--engine", choices=("obj", "array"), default=None,
        help="cycle-model implementation (docs/ENGINE.md); default: "
        "REPRO_ENGINE env var, then 'array' -- results are identical",
    )
    p.add_argument(
        "--trace",
        nargs="?",
        const="trace",
        default=None,
        metavar="PREFIX",
        help="write pipeline event traces to PREFIX.jsonl + PREFIX.chrome.json",
    )
    p.add_argument(
        "--trace-interval", type=int, default=64,
        help="cycles between occupancy samples (with --trace)",
    )
    p.add_argument(
        "--trace-events", type=int, default=200_000,
        help="cap on recorded instruction events (with --trace)",
    )
    p.add_argument(
        "--report",
        nargs="?",
        const="report.md",
        default=None,
        metavar="PATH",
        help="write a markdown run report to PATH (+ .json sibling)",
    )
    p.add_argument(
        "--invariants",
        choices=("off", "periodic", "full"),
        default="off",
        help="pipeline invariant audit cadence (docs/RESILIENCE.md)",
    )
    p.add_argument(
        "--watchdog-cycles", type=int, default=None, metavar="N",
        help="declare livelock after N cycles without a retirement",
    )
    p.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="write a crash bundle to DIR when the run fails",
    )

    p = sub.add_parser("compare", help="train->annotate->evaluate comparison")
    p.add_argument("workload")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--ibda", action="store_true", help="also run IBDA modes")

    p = sub.add_parser("diagnose", help="ready->issue delay report")
    p.add_argument("workload")
    p.add_argument("--scale", type=float, default=1.0)

    p = sub.add_parser("autotune", help="threshold tuning (Section 5.5)")
    p.add_argument("workload")
    p.add_argument("--scale", type=float, default=1.0)

    args = parser.parse_args(argv)
    handlers = {
        "workloads": cmd_workloads,
        "simulate": cmd_simulate,
        "compare": cmd_compare,
        "diagnose": cmd_diagnose,
        "autotune": cmd_autotune,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
