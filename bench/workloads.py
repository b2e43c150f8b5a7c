"""The four benchmark workloads: set-up, a timed phase, and output checks.

Every workload drives a public entry point: ``repro.orchestrate.execute_run``
for the three batch workloads and ``python -m repro.serve`` for the open
loop. The benchmark seed picks the inputs: seed S runs the workload variant
``ref`` (S=0) or ``ref#S``, and seeds the serve job order. Nothing of the
benchmark reaches the program except those inputs.

Outputs are checked three ways: against ``bench/golden.json`` (seeds 0-2),
against the first answer for the same cell within the run, and by
recomputing a seeded pick of cells in-process with the other cycle engine,
which must give the same digest (docs/ENGINE.md).
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import repro.orchestrate as orchestrate
from repro.orchestrate.experiment import SuiteMatrix
from repro.parallel.cache import ResultCache
from repro.parallel.cellkey import CellSpec
from repro.parallel.executor import run_cell_spec
from repro.sampling import parse_sample, run_cells_sampled
from repro.serve.client import ServeClient
from repro.sim.comparison import geomean
from repro.sim.simulator import resolve_engine
from repro.uarch.stats import SimStats
from repro.workloads import suite_names

from . import host, spans
from .analyze import percentile
from .golden import Verdict, cell_id

ROOT = Path(__file__).resolve().parents[1]
#: Pool workers and server workers: two, or fewer on a smaller machine.
JOBS = min(2, len(os.sched_getaffinity(0)))

#: suite-cold / suite-warm: all 16 workloads x {ooo, crisp}. At this scale
#: the fixed per-cell costs (workload build, trace, FDO) are about half the
#: time, and one cold run takes a few seconds, so a run holds several.
SUITE_SCALE = 0.1
SAMPLED_WORKLOADS = ("mcf", "omnetpp", "xz")
SAMPLED_SCALE = 1.0
SAMPLE = "smarts:1000/10000"
#: serve-open: offered load in jobs per second, and each job's size.
SERVE_RATE = 2.0
SERVE_SCALE = 0.1
#: How often the open-loop client looks at jobs other than the oldest.
SERVE_POLL_S = 0.02
#: Cold starts (server starts for serve-open) timed per run; setup_s
#: takes their median.
SETUP_REPEATS = 11
#: Fewest untraced/traced operation pairs a traced batch run makes, even
#: past its time: one pair varies by 10% or more with the host, and the
#: overhead is their median.
TRACE_MIN_PAIRS = 3
#: --smoke sizes: the cheapest suite workloads, and one sampled workload.
SMOKE_SUITE = ("mcf", "omnetpp", "gcc", "img_dnn")
SMOKE_SAMPLED = ("mcf",)


def variant(seed: int) -> str:
    return "ref" if seed == 0 else f"ref#{seed}"


class SeededSuite(SuiteMatrix):
    """The ``suite`` matrix on one seed variant instead of ``ref`` alone."""

    def __init__(self, variant: str, **kwargs):
        super().__init__(**kwargs)
        self.variant = variant

    def variants(self) -> list[str]:
        return [self.variant]

    def args(self) -> dict:
        return {**super().args(), "variant": self.variant}


def suite_experiment(seed: int, smoke: bool = False) -> SeededSuite:
    return SeededSuite(variant(seed), scale=SUITE_SCALE,
                       workloads=list(SMOKE_SUITE) if smoke else None)


def sampled_experiment(seed: int, smoke: bool = False) -> SeededSuite:
    return SeededSuite(variant(seed), scale=SAMPLED_SCALE,
                       workloads=list(SMOKE_SAMPLED if smoke else SAMPLED_WORKLOADS))


def serve_job_count(seconds: float) -> int:
    return max(1, round(SERVE_RATE * seconds))


def serve_specs(seed: int, count: int) -> list[CellSpec]:
    """The serve job sequence: one interactive cell per job.

    Which workloads and modes run depends on ``count`` alone: job ``i`` of
    the unshuffled list runs suite workload ``i % 16``, as crisp when
    ``i % 4 == i // 16 % 4`` (3:1 ooo:crisp; four passes over the suite
    make each workload crisp once), with its own variant ``ref#k``,
    ``k = seed * 100000 + i + 1``, so no job is answered from the cache or
    coalesced and a shorter list holds the first jobs of a longer one. The
    seed shuffles the order, so runs of different seeds offer the same mix
    of work.
    """
    names = suite_names()
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return [CellSpec(workload=names[i % len(names)],
                     mode="crisp" if i % 4 == i // len(names) % 4 else "ooo",
                     scale=SERVE_SCALE, variant=f"ref#{seed * 100_000 + i + 1}")
            for i in order]


def _other_engine(engine: str) -> str:
    return "array" if engine == "obj" else "obj"


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: list[float] = field(default_factory=list)
    #: perf_counter (start, end) of each operation, aligned with latencies.
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: What each operation did, aligned with latencies: the operation's
    #: index (batch) or its job's index in the job sequence (serve).
    keys: list[int] = field(default_factory=list)
    #: Batch: process-tree CPU seconds and simulated instructions answered
    #: of each operation, aligned with latencies.
    op_cpu_s: list[float] = field(default_factory=list)
    op_insts: list[int] = field(default_factory=list)
    #: Open loop, whose jobs overlap: process-tree CPU seconds of the
    #: phase, the host seconds it was busy and the instructions answered.
    cpu_s: float = 0.0
    busy_s: float = 0.0
    insts: int = 0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: serve-open: how late the generator sent its latest job.
    gen_lag_max_s: float = 0.0
    #: serve-open: job cell label -> client send time (queue-wait base).
    submits: dict = field(default_factory=dict)
    #: perf_counter window of the phase, for the host-speed factor.
    start: float = 0.0
    end: float = 0.0
    #: Whether the phase's throughput is set by its offered load, not by
    #: host speed (an open loop below saturation).
    open_loop: bool = False

    def reference_latencies(self, probe: host.SpeedProbe) -> list[float]:
        """Each latency divided by the host slowness during its operation."""
        return [latency / probe.factor(start, end)
                for latency, (start, end) in zip(self.latencies, self.windows)]

    def keyed_latencies(self) -> dict[int, float]:
        """Host-seconds latencies by operation key."""
        return dict(zip(self.keys, self.latencies))

    def end_to_end(self, setup_s: float,
                   probe: host.SpeedProbe) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics, host times divided by host slowness.

        ``setup_s`` is already in reference seconds (``setup``). A batch
        phase reports medians over its operations, each divided by the host
        slowness during it. An open loop reports phase totals, and its
        ``kips`` is not divided: the offered load sets it, not host speed.
        """
        latencies = self.reference_latencies(probe)
        if self.open_loop:
            cpu = self.cpu_s / self.attempted / probe.factor(self.start, self.end)
            kips = self.insts / self.busy_s / 1000.0
        else:
            cpu = statistics.median(
                cpu_s / probe.factor(start, end)
                for cpu_s, (start, end) in zip(self.op_cpu_s, self.windows))
            kips = statistics.median(
                insts / latency for insts, latency in zip(self.op_insts, latencies)) / 1000.0
        return {
            "setup_s": (setup_s, "s"),
            "latency_p50_s": (percentile(latencies, 50), "s"),
            "cpu_per_op_s": (cpu, "s"),
            "kips": (kips, "kinst/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }


def _reference_s(probe: host.SpeedProbe, start: float, end: float) -> float:
    """Host seconds ``[start, end]`` divided by the host slowness over them."""
    return (end - start) / probe.factor(start, end)


def _timed_subprocess(args: list[str], probe: host.SpeedProbe) -> float:
    start = time.perf_counter()
    subprocess.run(args, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return _reference_s(probe, start, time.perf_counter())


class BenchWorkload:
    """One workload of one run: ``setup``, then ``measure`` or
    ``measure_traced``, then ``spot_check`` and ``close``.

    ``setup`` returns its time in reference seconds (host seconds divided by
    the host slowness, ``host.SpeedProbe``). ``measure_traced`` returns an
    untraced and a traced phase whose operations pair up by key: the same
    work, once without the span wrappers and once with them.
    """

    name = ""

    def __init__(self, seed: int, work: Path, golden: dict, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.verdict = Verdict(golden)
        self.spot_checked = 0
        self.spot_failed = 0

    def setup(self, probe: host.SpeedProbe) -> float:
        raise NotImplementedError

    def measure(self, seconds: float) -> Phase:
        raise NotImplementedError

    def measure_traced(self, seconds: float, recorder: spans.Recorder) -> tuple[Phase, Phase]:
        raise NotImplementedError

    def spot_check(self) -> None:
        raise NotImplementedError

    def model_metrics(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def _spot(self, label: str, expected, fresh) -> None:
        self.spot_checked += 1
        if expected != fresh:
            self.spot_failed += 1
            self.verdict.mismatches.append(
                f"{label}: the other engine gives {fresh}, the run gave {expected}")


class BatchWorkload(BenchWorkload):
    """Repeated ``execute_run`` operations, one caller, one after another."""

    #: Sample spec of the operation, and the golden section its cells use.
    sample = "off"
    section = "cells"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.experiment = self.make_experiment()
        #: cell id -> [spec, ipc, stats, golden-checked]
        self.reference: dict[str, list] = {}
        self.reference_engine = resolve_engine(None)
        self.ops = 0

    def make_experiment(self) -> SeededSuite:
        raise NotImplementedError

    def run_op(self, op_dir: Path, on_cell) -> dict:
        raise NotImplementedError

    def setup(self, probe: host.SpeedProbe) -> float:
        """Median cold start of the orchestration CLI, a fresh interpreter.

        This process then loads the experiment registry too, as that CLI
        does, so the first timed operation pays no import the others skip.
        """
        command = [sys.executable, "-m", "repro.orchestrate", "list"]
        cold_start = statistics.median(
            _timed_subprocess(command, probe) for _ in range(SETUP_REPEATS))
        orchestrate.registry()
        return cold_start

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        phase.start = start = time.perf_counter()
        while phase.attempted == 0 or time.perf_counter() - start < seconds:
            self._operation(phase)
        return self._closed(phase)

    def measure_traced(self, seconds: float, recorder: spans.Recorder) -> tuple[Phase, Phase]:
        """Untraced and traced operations taking turns, so each pair runs
        at nearly the same host speed."""
        untraced, traced = Phase(), Phase()
        untraced.start = traced.start = start = time.perf_counter()
        while (traced.attempted < TRACE_MIN_PAIRS
               or time.perf_counter() - start < seconds):
            self._operation(untraced)
            installation = spans.install(recorder)
            try:
                self._operation(traced, recorder)
            finally:
                installation.uninstall()
        return self._closed(untraced), self._closed(traced)

    def _operation(self, phase: Phase, recorder: spans.Recorder | None = None) -> None:
        """One ``execute_run`` call, timed and checked."""
        op_dir = self.work / f"op-{self.ops}"
        results = {}
        cpu_before = host.tree_cpu_s()
        began = time.perf_counter()
        if recorder is None:
            summary = self.run_op(op_dir, results.__setitem__)
        else:
            with recorder.span("bench.run"):
                summary = self.run_op(op_dir, results.__setitem__)
        latency = time.perf_counter() - began
        host.reap_children()
        phase.op_cpu_s.append(host.tree_cpu_s() - cpu_before)
        phase.latencies.append(latency)
        phase.windows.append((began, began + latency))
        phase.keys.append(phase.attempted)
        phase.attempted += 1
        phase.op_insts.append(sum(r.stats.retired for r in results.values() if r.ok))
        if summary["failed"] or not self.check(results.values()):
            phase.failed += 1
        self.ops += 1

    @staticmethod
    def _closed(phase: Phase) -> Phase:
        phase.end = time.perf_counter()
        phase.peak_rss_mb = host.peak_rss_mb()
        return phase

    def check(self, results) -> bool:
        """Each cell equals its first answer; first answers match golden."""
        ok = True
        for result in results:
            if not result.ok:
                ok = False
                continue
            key = cell_id(result.spec, self.sample)
            entry = self.reference.setdefault(
                key, [result.spec, result.ipc, result.stats, False])
            if entry[2] != result.stats:
                self.verdict.mismatches.append(f"{key}: differs from its first answer")
                ok = False
            if not entry[3]:
                entry[3] = True
                ok = self.verdict.compare(self.section, key, result.stats.digest()) and ok
        return ok

    def spot_keys(self) -> list[str]:
        rng = random.Random(self.seed)
        keys = sorted(self.reference)
        return rng.sample(keys, min(2, len(keys)))

    def recompute(self, spec: CellSpec) -> SimStats:
        return SimStats.from_dict(run_cell_spec(spec)["stats"])

    def spot_check(self) -> None:
        engine = _other_engine(self.reference_engine)
        for key in self.spot_keys():
            spec, _, stats, _ = self.reference[key]
            fresh = self.recompute(replace(spec, engine=engine))
            self._spot(key, stats.digest(), fresh.digest())

    def _ipcs(self) -> dict[tuple[str, str], float]:
        return {(spec.workload, spec.mode): ipc
                for spec, ipc, _, _ in self.reference.values()}

    def model_metrics(self) -> dict[str, float]:
        ipcs = self._ipcs()
        ratios = [ipcs[(name, "crisp")] / ipcs[(name, "ooo")]
                  for name in self.experiment.workloads
                  if (name, "crisp") in ipcs and (name, "ooo") in ipcs]
        return {"model.crisp_gain_pct": (geomean(ratios) - 1.0) * 100.0 if ratios else 0.0}


class SuiteCold(BatchWorkload):
    name = "suite-cold"

    def make_experiment(self) -> SeededSuite:
        return suite_experiment(self.seed, self.smoke)

    def run_op(self, op_dir: Path, on_cell) -> dict:
        return orchestrate.execute_run(
            self.experiment, out=op_dir / "runs", jobs=JOBS,
            cache=ResultCache(str(op_dir / "cache")), on_cell=on_cell)


class SuiteWarm(BatchWorkload):
    name = "suite-warm"

    def make_experiment(self) -> SeededSuite:
        return suite_experiment(self.seed, self.smoke)

    def setup(self, probe: host.SpeedProbe) -> float:
        """Cold start, then fill the cache for the suite's cells."""
        cold_start = super().setup(probe)
        self.cache = ResultCache(str(self.work / "cache"))
        self.reference_engine = "array"  # cell keys exclude the engine
        filled = {}
        began = time.perf_counter()
        summary = orchestrate.execute_run(
            self.experiment, out=self.work / "fill", jobs=JOBS, cache=self.cache,
            engine=self.reference_engine, on_cell=filled.__setitem__)
        host.reap_children()
        fill_s = _reference_s(probe, began, time.perf_counter())
        if summary["failed"]:
            raise RuntimeError(f"cache fill failed for {summary['failed']} cells")
        for result in filled.values():
            self.reference[cell_id(result.spec)] = [
                result.spec, result.ipc, result.stats, False]
        return cold_start + fill_s

    def run_op(self, op_dir: Path, on_cell) -> dict:
        return orchestrate.execute_run(
            self.experiment, out=op_dir / "runs", jobs=JOBS, cache=self.cache,
            on_cell=on_cell)


class Sampled(BatchWorkload):
    name = "sampled"
    sample = SAMPLE
    section = "sampled"

    def make_experiment(self) -> SeededSuite:
        return sampled_experiment(self.seed, self.smoke)

    def run_op(self, op_dir: Path, on_cell) -> dict:
        return orchestrate.execute_run(
            self.experiment, out=op_dir / "runs", jobs=JOBS,
            cache=ResultCache(str(op_dir / "cache")), sample=SAMPLE,
            on_cell=on_cell)

    def spot_keys(self) -> list[str]:
        # One ooo parent: serial sampled re-execution, no FDO.
        keys = sorted(k for k, entry in self.reference.items() if entry[0].mode == "ooo")
        return [random.Random(self.seed).choice(keys)] if keys else []

    def recompute(self, spec: CellSpec) -> SimStats:
        return run_cells_sampled([spec], parse_sample(SAMPLE))[0].require_stats()

    def model_metrics(self) -> dict[str, float]:
        metrics = super().model_metrics()
        errors = []
        for spec, ipc, _, _ in self.reference.values():
            full = self.verdict.golden.get("full_ipc", {}).get(cell_id(spec))
            if full is None:
                full = run_cell_spec(replace(spec, engine="array"))["ipc"]
            errors.append(abs(ipc - full) / full * 100.0)
        metrics["model.ipc_err_pct"] = statistics.mean(errors) if errors else 0.0
        return metrics


class ServerProcess:
    """A ``python -m repro.serve`` child on a free localhost TCP port."""

    def __init__(self, work: Path, index: int, trace_dir: Path | None = None):
        args = ["--port", "0", "--jobs", str(JOBS),
                "--cache-dir", str(work / f"serve-cache-{index}"),
                "--drain-dir", str(work / f"serve-drain-{index}")]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            command = [sys.executable, str(ROOT / "bench" / "spans.py"),
                       str(trace_dir), "repro.serve", *args]
        #: perf_counter from launch to the server listening.
        self.began = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                        text=True)
        line = self.process.stdout.readline()
        self.listening = time.perf_counter()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host_port = line.split("listening on ", 1)[1].split()[0]
        address, port = host_port.rsplit(":", 1)
        self.address = (address, int(port))

    def stop(self) -> None:
        """Drain via SIGTERM and wait for the server and its workers to end."""
        workers = host.descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        host.wait_gone(workers)


class ServeOpen(BenchWorkload):
    """Open loop: jobs sent on a fixed schedule over one client connection."""

    name = "serve-open"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server: ServerProcess | None = None
        self.servers = 0
        #: cell id -> (spec, [cycles, retired])
        self.answers: dict[str, tuple[CellSpec, list[int]]] = {}

    def _start(self, trace_dir: Path | None = None) -> ServerProcess:
        self.servers += 1
        return ServerProcess(self.work, self.servers, trace_dir)

    def setup(self, probe: host.SpeedProbe) -> float:
        """Median server start-up to listening; the last server is kept."""
        times = []
        for attempt in range(SETUP_REPEATS):
            server = self._start()
            times.append(_reference_s(probe, server.began, server.listening))
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        self.server = server
        return statistics.median(times)

    def measure(self, seconds: float) -> Phase:
        return self._serve(self.server, seconds)

    def measure_traced(self, seconds: float, recorder: spans.Recorder) -> tuple[Phase, Phase]:
        """The same job sequence twice, each over half the time: first on
        the untraced server, then on a traced one. Jobs pair up by their
        index in the sequence; a traced server cannot take turns with an
        untraced one without a second set of workers."""
        untraced = self._serve(self.server, seconds / 2)
        with recorder.span("bench.run"):
            traced = self._serve(self._start(recorder.trace_dir), seconds / 2)
        return untraced, traced

    def _serve(self, server: ServerProcess, seconds: float) -> Phase:
        self.server = None
        try:
            return self._open_loop(server, serve_specs(self.seed, serve_job_count(seconds)))
        finally:
            server.stop()

    def _open_loop(self, server: ServerProcess, specs: list[CellSpec]) -> Phase:
        phase = Phase(open_loop=True)
        pending: dict[str, int] = {}  # job id -> index into specs
        with ServeClient(address=server.address, timeout=120.0) as client:
            cpu_before = host.tree_cpu_s()
            phase.start = start = time.perf_counter()
            due = [start + index / SERVE_RATE for index in range(len(specs))]
            sent = 0
            last_done = start
            while sent < len(specs) or pending:
                now = time.perf_counter()
                if sent < len(specs) and now >= due[sent]:
                    spec = specs[sent]
                    phase.gen_lag_max_s = max(phase.gen_lag_max_s, now - due[sent])
                    phase.submits[f"{spec.workload}/{spec.mode}/{spec.variant}"] = now
                    response = client.request({
                        "op": "submit", "priority": "interactive",
                        "cells": [{"workload": spec.workload, "mode": spec.mode,
                                   "scale": spec.scale, "variant": spec.variant}]})
                    phase.attempted += 1
                    if response.get("ok"):
                        pending[response["job"]] = sent
                    else:
                        phase.failed += 1
                    sent += 1
                    continue
                if not pending:
                    time.sleep(due[sent] - now)
                    continue
                until_due = due[sent] - now if sent < len(specs) else SERVE_POLL_S
                oldest = min(pending, key=pending.get)
                waited = client.request({"op": "wait", "job": oldest,
                                         "timeout": max(0.001, min(SERVE_POLL_S, until_due))})
                if waited.get("ok"):
                    index = pending.pop(oldest)
                    last_done = time.perf_counter()
                    self._finish(phase, index, specs[index], waited, due[index], last_done)
                for job in list(pending):
                    if client.request({"op": "status", "job": job}).get("remaining") == 0:
                        index = pending.pop(job)
                        last_done = time.perf_counter()
                        waited = client.request({"op": "wait", "job": job, "timeout": 5.0})
                        self._finish(phase, index, specs[index], waited, due[index],
                                     last_done)
            phase.cpu_s = host.tree_cpu_s() - cpu_before
            phase.end = last_done
            phase.busy_s = last_done - start
            phase.peak_rss_mb = host.peak_rss_mb()
        return phase

    def _finish(self, phase: Phase, index: int, spec: CellSpec, response: dict,
                due: float, done: float) -> None:
        """Record job ``index`` of the sequence, timed from when it was due.

        Its first answer is checked against the golden; every later answer
        for the same cell must equal the first.
        """
        phase.latencies.append(done - due)
        phase.windows.append((due, done))
        phase.keys.append(index)
        rows = response.get("results") or []
        ok = response.get("state") == "done" and len(rows) == 1 and rows[0]["status"] == "done"
        if ok:
            answer = [rows[0]["cycles"], rows[0]["retired"]]
            phase.insts += answer[1]
            key = cell_id(spec)
            if key not in self.answers:
                self.answers[key] = (spec, answer)
                ok = self.verdict.compare("serve", key, answer)
            elif self.answers[key][1] != answer:
                self.verdict.mismatches.append(
                    f"{key}: answered {answer}, first answered {self.answers[key][1]}")
                ok = False
        if not ok:
            phase.failed += 1

    def spot_check(self) -> None:
        engine = _other_engine(resolve_engine(None))
        keys = sorted(self.answers)
        for key in random.Random(self.seed).sample(keys, min(2, len(keys))):
            spec, answer = self.answers[key]
            stats = run_cell_spec(replace(spec, engine=engine))["stats"]
            self._spot(key, answer, [stats["cycles"], stats["retired"]])

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (SuiteCold, SuiteWarm, Sampled, ServeOpen)}
