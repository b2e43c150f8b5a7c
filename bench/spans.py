"""Wall-clock spans around each layer's public functions, installed from outside.

:func:`install` replaces every ``repro.*`` module binding (or class
attribute) of the callables in :data:`TARGETS` with a wrapper that records
one span per call: name, parent, start and end on the monotonic clock, and
a few counts read from the call's arguments and result. :meth:`Installation.
uninstall` puts every original back. The simulator's own files are not
touched.

Spans nest through a context variable, so asyncio tasks and threads keep
separate stacks. A pool worker forked inside a span inherits it as the
parent of its own spans, which is how a worker's ``parallel.cell`` hangs
under the parent's ``parallel.run_cells``. The process that created the
:class:`Recorder` keeps its spans in memory; every other process (forked
pool workers, a server started through this file) appends one JSON line per
closed span to ``<trace_dir>/spans-<pid>.jsonl``, so a worker that is
killed loses at most the span it was in.

Run as a script to start a module under tracing, e.g. the job server::

    python3 bench/spans.py TRACE_DIR repro.serve --port 0 --jobs 2
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import runpy
import sys
import time
import types
from pathlib import Path

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


class _Open:
    """A span that has started and not yet ended."""

    __slots__ = ("id", "name", "parent", "pid", "t0")

    def __init__(self, span_id: str, name: str, parent: str | None, pid: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.pid = pid
        self.t0 = 0.0


class Recorder:
    """Collects closed spans: in memory in its own process, on disk elsewhere.

    ``in_memory=False`` makes even the creating process write to disk (a
    traced server, whose spans the benchmark reads after it exits).
    """

    def __init__(self, trace_dir: str | Path, *, in_memory: bool = True):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid() if in_memory else None
        self.spans: list[dict] = []
        #: id(Program) -> [workload, variant, scale] of the build that made it,
        #: so an ``isa.execute`` span can say which input it emulated.
        self.program_keys: dict[int, list] = {}
        self._ids = itertools.count(1)
        self._file = None
        self._file_pid = None

    def open(self, name: str):
        """Start a span; None when the innermost open span has the same name.

        Re-entry (``store_cell`` calling ``atomic_write_json``) is one span.
        """
        pid = os.getpid()
        parent = _CURRENT.get()
        if parent is not None and parent.name == name and parent.pid == pid:
            return None
        span = _Open(f"{pid}:{next(self._ids)}", name,
                     parent.id if parent is not None else None, pid)
        token = _CURRENT.set(span)
        span.t0 = time.perf_counter()
        return span, token

    def close(self, opened, attrs: dict | None = None) -> None:
        t1 = time.perf_counter()
        span, token = opened
        _CURRENT.reset(token)
        record = {"id": span.id, "parent": span.parent, "name": span.name,
                  "t0": span.t0, "t1": t1}
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        opened = self.open(name)
        try:
            yield
        finally:
            if opened is not None:
                self.close(opened)

    def _emit(self, record: dict) -> None:
        pid = os.getpid()
        if pid == self.owner:
            self.spans.append(record)
            return
        if self._file_pid != pid:
            self._file = open(self.trace_dir / f"spans-{pid}.jsonl", "a",
                              buffering=1)
            self._file_pid = pid
        self._file.write(json.dumps(record) + "\n")

    def collect(self) -> list[dict]:
        """This process's spans plus every other process's span file."""
        spans = list(self.spans)
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans


# -- counts read at the span boundaries ----------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _build_attrs(recorder, args, kwargs, result):
    key = [_arg(args, kwargs, 1, "name"), _arg(args, kwargs, 2, "variant", "ref"),
           _arg(args, kwargs, 3, "scale", 1.0)]
    recorder.program_keys[id(result.program)] = key
    return None


def _execute_attrs(recorder, args, kwargs, result):
    program = _arg(args, kwargs, 0, "program")
    return {"insts": len(result.insts),
            "key": recorder.program_keys.get(id(program))}


def _fdo_attrs(recorder, args, kwargs, result):
    return {"key": [_arg(args, kwargs, 0, "workload_name"),
                    kwargs.get("scale", 1.0)]}


def _run_attrs(recorder, args, kwargs, result):
    return {"cycles": result.cycles, "retired": result.retired}


def _warm_attrs(recorder, args, kwargs, result):
    trace = _arg(args, kwargs, 1, "trace")
    start = _arg(args, kwargs, 2, "start", 0)
    end = _arg(args, kwargs, 3, "end")
    return {"insts": (len(trace.insts) if end is None else end) - start}


def _interval_attrs(recorder, args, kwargs, result):
    start, end = kwargs["interval"]
    return {"insts": end - start}


def _cache_get_attrs(recorder, args, kwargs, result):
    return {"hit": int(result is not None)}


def _cell_attrs(recorder, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return {"label": f"{spec.workload}/{spec.mode}/{spec.variant}"}


def _run_cells_attrs(recorder, args, kwargs, result):
    return {"jobs": kwargs.get("jobs", 1), "cells": len(result)}


#: (span name, defining module, attribute path, counts at the boundary).
TARGETS = (
    ("orchestrate.run", "repro.orchestrate.runs", "execute_run", None),
    ("orchestrate.plan", "repro.orchestrate.experiment", "Experiment.plan", None),
    ("orchestrate.rundir", "repro.orchestrate.rundir", "store_cell", None),
    ("orchestrate.rundir", "repro.orchestrate.rundir", "atomic_write_json", None),
    ("parallel.run_cells", "repro.parallel.executor", "run_cells", _run_cells_attrs),
    ("parallel.cell", "repro.parallel.executor", "run_cell_spec", _cell_attrs),
    ("parallel.cellkey", "repro.parallel.cellkey", "cell_key", None),
    ("parallel.cache.get", "repro.parallel.cache", "ResultCache.get", _cache_get_attrs),
    ("parallel.cache.put", "repro.parallel.cache", "ResultCache.put", None),
    ("workloads.build", "repro.workloads.base", "WorkloadRegistry.build", _build_attrs),
    ("isa.execute", "repro.isa.emulator", "execute", _execute_attrs),
    ("core.fdo", "repro.core.fdo", "run_crisp_flow", _fdo_attrs),
    ("core.profile", "repro.core.profiler", "profile_workload", None),
    ("core.slice", "repro.core.slicer", "extract_slice", None),
    ("core.filter", "repro.core.critical_path", "filter_slice", None),
    ("core.rewrite", "repro.core.rewriter", "Rewriter.annotate", None),
    ("sim.simulate", "repro.sim.simulator", "simulate", None),
    ("uarch.init", "repro.uarch.pipeline", "Pipeline.__init__", None),
    ("uarch.run", "repro.uarch.pipeline", "Pipeline.run", _run_attrs),
    ("uarch.run", "repro.uarch.array_engine", "ArrayPipeline.run", _run_attrs),
    ("sampling.expand", "repro.sampling.cells", "expand_spec", None),
    ("sampling.interval", "repro.sampling.sampler", "simulate_interval", _interval_attrs),
    ("sampling.warm", "repro.sampling.warmup", "FunctionalWarmer.warm", _warm_attrs),
    ("sampling.warm", "repro.sampling.warmup", "FunctionalWarmer.finish", None),
    ("serve.request", "repro.serve.server", "SimServer.handle_request", None),
)

#: Every span name, the benchmark's own root first.
SPAN_NAMES = ("bench.run",) + tuple(dict.fromkeys(t[0] for t in TARGETS))


def _wrap(fn, name: str, recorder: Recorder, attrs):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            opened = recorder.open(name)
            if opened is None:
                return await fn(*args, **kwargs)
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                recorder.close(opened)
                raise
            recorder.close(opened)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = recorder.open(name)
            if opened is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.close(opened)
                raise
            recorder.close(opened, attrs(recorder, args, kwargs, result)
                           if attrs is not None else None)
            return result
    wrapper._bench_span = name
    return wrapper


def _repro_modules() -> list[types.ModuleType]:
    return [module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None]


class Installation:
    """The bindings :func:`install` replaced, for :meth:`uninstall`."""

    def __init__(self):
        #: (module or class, attribute, original value), in install order.
        self.patches: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        # A module first imported while installed bound a wrapper by value.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and hasattr(value, "_bench_span"):
                    setattr(module, attr, value.__wrapped__)


def install(recorder: Recorder) -> Installation:
    """Wrap every binding of every target; returns what to undo."""
    installation = Installation()
    for name, module_name, path, attrs in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(original, name, recorder, attrs))
            installation.patches.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(original, name, recorder, attrs)
        for bound in _repro_modules():
            for binding, value in list(vars(bound).items()):
                if value is original:
                    setattr(bound, binding, wrapper)
                    installation.patches.append((bound, binding, original))
    return installation


def run_module_traced(trace_dir: str, module: str, argv: list[str]) -> None:
    """Run ``python -m module argv...`` with every target wrapped."""
    install(Recorder(trace_dir, in_memory=False))
    sys.argv = [module] + list(argv)
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: spans.py TRACE_DIR MODULE [ARGS...]")
    run_module_traced(sys.argv[1], sys.argv[2], sys.argv[3:])
