"""The ``experiment`` op: orchestrated experiments through the job server.

An experiment named on the wire is lowered to its Target × Instance
cells and admitted as one bulk job. Unknown experiments are rejected at
the protocol layer; an experiment that plans no cells, or a workload
selection the experiment does not take, is rejected when the server
plans it.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.serve import protocol
from repro.serve.protocol import ProtocolError, parse_experiment
from repro.serve.server import SimServer

FAST = 0.05


@contextlib.asynccontextmanager
async def serving(tmp_path, **kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("tick", 0.01)
    kw.setdefault("drain_dir", str(tmp_path / "drain"))
    server = SimServer(**kw)
    await server.start(socket_path=str(tmp_path / "serve.sock"))
    try:
        yield server
    finally:
        await server.stop()


# -- protocol validation -------------------------------------------------------


def test_parse_experiment_accepts_a_matrix_experiment():
    name, kwargs, engine, priority = parse_experiment({
        "op": "experiment", "experiment": "suite",
        "workloads": ["pointer_chase"], "scale": FAST, "seeds": 2,
    })
    assert name == "suite"
    assert kwargs == {"scale": FAST, "workloads": ["pointer_chase"],
                      "seeds": 2}
    assert engine is None and priority == "bulk"


def test_parse_experiment_rejects_unknown_names():
    with pytest.raises(ProtocolError, match="unknown experiment"):
        parse_experiment({"op": "experiment", "experiment": "fig99"})


def test_parse_experiment_validates_fields():
    with pytest.raises(ProtocolError, match="seeds"):
        parse_experiment({"op": "experiment", "experiment": "suite",
                          "seeds": 0})
    with pytest.raises(ProtocolError, match="scale"):
        parse_experiment({"op": "experiment", "experiment": "suite",
                          "scale": -1})
    with pytest.raises(ProtocolError, match="engine"):
        parse_experiment({"op": "experiment", "experiment": "suite",
                          "engine": "turbo"})


# -- end to end through the server ---------------------------------------------


def test_experiment_job_runs_to_done(tmp_path):
    async def scenario():
        async with serving(tmp_path) as server:
            admitted = await server.handle_request({
                "op": "experiment", "experiment": "suite",
                "workloads": ["pointer_chase"], "scale": FAST,
            })
            assert admitted["ok"], admitted
            assert admitted["experiment"] == "suite"
            assert admitted["cells"] == 2  # ooo + crisp
            done = await server.handle_request(
                {"op": "wait", "job": admitted["job"], "timeout": 120})
            assert done["state"] == "done", done
            assert done["experiment"] == "suite"
            for row in done["results"]:
                assert row["status"] == "done" and row["ipc"] > 0, row

    asyncio.run(scenario())


def test_experiment_job_rejections_on_the_server(tmp_path):
    async def scenario():
        async with serving(tmp_path) as server:
            cell_less = await server.handle_request(
                {"op": "experiment", "experiment": "table1"})
            assert not cell_less["ok"]
            assert cell_less["code"] == protocol.E_BAD_REQUEST
            assert "plans no cells" in cell_less["error"]
            unknown = await server.handle_request(
                {"op": "experiment", "experiment": "fig99"})
            assert not unknown["ok"]
            assert unknown["code"] == protocol.E_BAD_REQUEST
            fixed = await server.handle_request({
                "op": "experiment", "experiment": "discussion_smt",
                "workloads": ["mcf"], "scale": FAST,
            })
            assert not fixed["ok"]
            assert fixed["code"] == protocol.E_BAD_REQUEST
            assert server.stats.jobs_submitted == 0

    asyncio.run(scenario())


@pytest.mark.parametrize("name,workloads,cells", [
    ("fig8", ["pointer_chase"], 4),
    ("fig12", ["pointer_chase"], 2),
    ("discussion_division", None, 2),
])
def test_cell_planning_figures_are_admitted(tmp_path, name, workloads, cells):
    async def scenario():
        server = SimServer(jobs=1, drain_dir=str(tmp_path / "drain"))
        request = {"op": "experiment", "experiment": name, "scale": FAST}
        if workloads is not None:
            request["workloads"] = workloads
        admitted = await server.handle_request(request)
        assert admitted["ok"], admitted
        assert admitted["cells"] == cells

    asyncio.run(scenario())


def test_requests_are_answered_while_an_experiment_plans(tmp_path, monkeypatch):
    """Planning runs off the event loop: a ``health`` request sent while an
    experiment plans is answered before the plan returns. A plan run on
    the loop would hold it, and this plan gives up waiting."""
    import threading

    from repro.orchestrate import get_experiment

    suite = get_experiment("suite")
    real_plan = suite.plan
    planning, answered = threading.Event(), threading.Event()

    def plan_after_health(self):
        planning.set()
        assert answered.wait(timeout=5), "no request answered while planning"
        return real_plan(self)

    monkeypatch.setattr(suite, "plan", plan_after_health)

    async def scenario():
        server = SimServer(jobs=1, drain_dir=str(tmp_path / "drain"))
        submitted = asyncio.create_task(server.handle_request({
            "op": "experiment", "experiment": "suite",
            "workloads": ["pointer_chase"], "scale": FAST,
        }))
        while not planning.is_set():
            await asyncio.sleep(0.01)
        health = await server.handle_request({"op": "health"})
        answered.set()
        assert health["ok"] and health["status"] == "serving"
        admitted = await submitted
        assert admitted["ok"] and admitted["cells"] == 2, admitted

    asyncio.run(scenario())


def test_experiment_cells_coalesce_with_plain_submits(tmp_path):
    """An experiment cell and an identical submitted cell share one
    execution — experiments get no private cell identity."""

    async def scenario():
        async with serving(tmp_path, jobs=1) as server:
            exp = await server.handle_request({
                "op": "experiment", "experiment": "suite",
                "workloads": ["pointer_chase"], "scale": FAST,
            })
            dup = await server.handle_request({
                "op": "submit",
                "cells": [{"workload": "pointer_chase", "mode": "ooo",
                           "scale": FAST}],
            })
            a = await server.handle_request(
                {"op": "wait", "job": exp["job"], "timeout": 120})
            b = await server.handle_request(
                {"op": "wait", "job": dup["job"], "timeout": 120})
            assert a["state"] == b["state"] == "done"
            assert server.stats.cells_coalesced >= 1

    asyncio.run(scenario())


def test_sweep_lowers_to_the_suite_with_unchanged_cell_specs(tmp_path):
    """A ``sweep`` job is the ``suite`` experiment over its workloads x
    modes, admitting exactly the cells the per-cell lowering built."""

    async def scenario():
        server = SimServer(jobs=1, drain_dir=str(tmp_path / "drain"))
        request = {"op": "sweep", "workloads": ["mcf", "lbm"],
                   "modes": ["ooo", "crisp"], "scale": 1,
                   "cycle_budget": 500, "engine": "obj"}
        admitted = await server.handle_request(request)
        assert admitted["ok"] and admitted["experiment"] == "suite"
        job = server._jobs[admitted["job"]]
        assert job.experiment.args()["modes"] == ["ooo", "crisp"]
        assert job.specs == [
            protocol.parse_cell({"workload": w, "mode": m, "scale": 1,
                                 "cycle_budget": 500, "engine": "obj"})
            for w in ("mcf", "lbm") for m in ("ooo", "crisp")
        ]

    asyncio.run(scenario())
