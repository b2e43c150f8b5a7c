"""Wrapper installation and cross-process span collection."""

import asyncio
import importlib
import os
import sys
import types

from bench import spans


def repro_bindings() -> dict:
    """(owner, attribute) -> original, for every binding of every target."""
    found = {}
    for _, module_name, path, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(module, attr)
        for name, bound in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for binding, value in vars(bound).items():
                    if value is original:
                        found[(bound, binding)] = original
    return found


def test_install_replaces_every_binding_and_uninstall_restores_it(tmp_path):
    # Aliases count: experiments.common binds run_cells as _parallel_run_cells.
    common = importlib.import_module("repro.experiments.common")
    before = repro_bindings()
    assert (common, "_parallel_run_cells") in before

    installation = spans.install(spans.Recorder(tmp_path))
    try:
        for (owner, attr), original in before.items():
            wrapper = vars(owner)[attr]
            assert wrapper is not original, (owner, attr)
            assert wrapper.__wrapped__ is original
            assert wrapper._bench_span
    finally:
        installation.uninstall()

    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for value in vars(module).values():
                assert not (isinstance(value, types.FunctionType)
                            and hasattr(value, "_bench_span")), name


def test_spans_from_pool_workers_reach_the_parent(tmp_path):
    from repro.parallel.cellkey import CellSpec
    from repro.parallel.executor import run_cells

    recorder = spans.Recorder(tmp_path)
    installation = spans.install(recorder)
    try:
        with recorder.span("bench.run"):
            import repro.parallel as parallel

            results = parallel.run_cells(
                [CellSpec("mcf", "ooo", scale=0.02),
                 CellSpec("omnetpp", "ooo", scale=0.02)], jobs=2)
    finally:
        installation.uninstall()
    assert run_cells is parallel.run_cells
    assert all(result.ok for result in results)

    collected = recorder.collect()
    by_name = {}
    for record in collected:
        by_name.setdefault(record["name"], []).append(record)
    (parent,) = by_name["parallel.run_cells"]
    assert parent["id"].startswith(f"{os.getpid()}:")
    cells = by_name["parallel.cell"]
    assert len(cells) == 2
    for cell in cells:
        assert cell["parent"] == parent["id"]
        assert not cell["id"].startswith(f"{os.getpid()}:")
    ids = {record["id"] for record in collected}
    worker_runs = by_name["uarch.run"]
    assert len(worker_runs) == 2
    assert all(run["parent"] in ids and run["attrs"]["cycles"] > 0 for run in worker_runs)


def test_reentry_and_coroutines_make_one_span_each(tmp_path):
    recorder = spans.Recorder(tmp_path)

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    async def request():
        await asyncio.sleep(0)
        return "ok"

    wrapped_inner = spans._wrap(inner, "orchestrate.rundir", recorder, None)
    wrapped_outer = spans._wrap(outer, "orchestrate.rundir", recorder, None)
    wrapped_request = spans._wrap(request, "serve.request", recorder, None)
    assert wrapped_outer() == 2
    assert asyncio.run(wrapped_request()) == "ok"
    assert [record["name"] for record in recorder.collect()] == [
        "orchestrate.rundir", "serve.request"]
