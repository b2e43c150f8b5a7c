"""Run the repository benchmark (bench/README.md).

One workload::

    python3 bench/run.py --workload suite-cold --seed 3 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric) and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. It exits non-zero when any output is wrong.

Without ``--workload`` every workload runs, each in a fresh process.
``--smoke`` shrinks every workload to a few seconds. ``--repeat N`` runs
each workload N times on seeds ``seed .. seed+N-1`` and reports each
end-to-end metric's median and spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIG = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
#: --smoke: seconds per workload (each still runs at least one operation).
SMOKE_SECONDS = 2.5


def benchmark_config() -> dict:
    with open(CONFIG) as handle:
        return json.load(handle)


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {SRC}")
    sys.path[:0] = [str(ROOT), str(SRC)]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    # The benchmark measures the code's default engine, not a local override.
    os.environ.pop("REPRO_ENGINE", None)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"bench: repro imported from {repro.__file__}, not {SRC}")


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     smoke: bool = False) -> dict:
    """Run one workload in this process; returns the result object."""
    from bench import golden, host, spans, workloads
    from bench.analyze import layer_metrics, paired_overhead, percentile

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, work, golden.load(), smoke=smoke)
    try:
        with host.SpeedProbe() as probe:
            setup_s = workload.setup(probe)
            if trace:
                recorder = spans.Recorder(work / "trace")
                phases = list(workload.measure_traced(seconds, recorder))
            else:
                phases = [workload.measure(seconds)]
            untraced = phases[0]
            metrics = untraced.end_to_end(setup_s, probe)
            factor = probe.factor(untraced.start, phases[-1].end)
        if trace:
            traced = phases[1]
            collected = recorder.collect()
            with open(WORK / f"trace-{name}-seed{seed}.jsonl", "w") as handle:
                handle.writelines(json.dumps(record) + "\n" for record in collected)
            metrics = layer_metrics(collected, ops=traced.attempted, submits=traced.submits)
            metrics.update({
                "latency_p90_s": (percentile(untraced.reference_latencies(probe), 90), "s"),
                "bench.gen_lag_max_s": (untraced.gen_lag_max_s, "s"),
                "bench.host_factor": (factor, "ratio"),
                # Raw host seconds: over a single operation the speed
                # probe's reading added more noise than it took out.
                "trace.overhead_frac": (paired_overhead(untraced.keyed_latencies(),
                                                        traced.keyed_latencies()), "ratio"),
                "model.crisp_gain_pct": (0.0, "%"),
                "model.ipc_err_pct": (0.0, "%"),
            })
            metrics.update({k: (v, "%") for k, v in workload.model_metrics().items()})
        workload.spot_check()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    verdict = workload.verdict
    attempted = sum(p.attempted for p in phases) + workload.spot_checked
    failed = sum(p.failed for p in phases) + workload.spot_failed
    print(f"# {name} seed={seed} ops={attempted} failed={failed} "
          f"golden_checked={verdict.checked} verified={str(verdict.verified).lower()} "
          f"host_factor={factor:.3f}")
    for line in verdict.mismatches:
        print(f"# MISMATCH {line}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:36s} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and not verdict.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload in a fresh process; its last stdout line, parsed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(completed.stdout)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if completed.returncode != 0:
        result["correct"] = False
    return result


def run_all(names, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_child(name, seed, seconds, trace, smoke)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def iqr_fraction(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def repeat(names, count: int, seed: int, seconds: float, smoke: bool) -> dict:
    """``count`` untraced runs per workload; median and spread per metric."""
    bounds = {m["name"]: m["bound"] for m in benchmark_config()["end_to_end"]}
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runs = [run_child(name, s, seconds, False, smoke)
                for s in range(seed, seed + count)]
        for result in runs:
            report["correct"] = report["correct"] and result["correct"]
            report["attempted"] += result["attempted"]
            report["failed"] += result["failed"]
        print(f"## {name}: {count} runs, seeds {seed}..{seed + count - 1}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            if len(values) < 2:
                continue
            spread = iqr_fraction(values)
            flag = "" if spread <= bound else "  SPREAD > BOUND"
            print(f"{metric:20s} median {statistics.median(values):.6g}  "
                  f"iqr/median {spread:.4f}  bound {bound}{flag}")
            report["metrics"][f"{name}/{metric}"] = {
                "median": statistics.median(values), "iqr_frac": spread, "bound": bound}
    return report


def build_parser(workload_names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workload_names,
                        help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in seconds")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N untraced runs per workload; report spreads")
    return parser


def main(argv=None) -> int:
    config = benchmark_config()
    names = [w["name"] for w in config["workloads"]]
    args = build_parser(names).parse_args(argv)
    if args.seed < 0:
        raise SystemExit("bench: --seed must be >= 0")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else config["run_seconds"]
    use_checkout_src()
    chosen = [args.workload] if args.workload else names
    if args.repeat:
        result = repeat(chosen, args.repeat, args.seed, seconds, args.smoke)
    elif args.workload:
        result = measure_workload(args.workload, args.seed, seconds, bool(args.trace),
                                  args.smoke)
    else:
        result = run_all(chosen, args.seed, seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
