"""SimServer: admission, priorities, coalescing, drain, wire transport.

pytest-asyncio is not a dependency; each test drives its own event loop
with ``asyncio.run`` and a small ``serving()`` context manager. Cells use
``scale=0.05`` so a fresh simulation costs well under a second.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.orchestrate.__main__ import main as orchestrate_main
from repro.orchestrate.rundir import MANIFEST_VERSION, load_cells, load_manifest
from repro.parallel import ResultCache, run_cells
from repro.parallel.cellkey import CACHE_SCHEMA_VERSION, CellSpec
from repro.parallel import executor as executor_module
from repro.serve import protocol
from repro.serve.server import SimServer

FAST = 0.05


def cell(workload="pointer_chase", mode="ooo", **kw):
    return {"workload": workload, "mode": mode, "scale": FAST, **kw}


def cell_result(workload="pointer_chase", mode="ooo"):
    """The ground-truth result of `cell(...)`, simulated in-process."""
    return run_cells(
        [CellSpec(workload=workload, mode=mode, scale=FAST)], jobs=1)[0]


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


async def wait_job(server, job_id, timeout=120.0):
    return await server.handle_request(
        {"op": "wait", "job": job_id, "timeout": timeout})


# -- the happy path ------------------------------------------------------------


def test_submit_runs_to_done_with_correct_results(tmp_path):
    truth = cell_result()

    async def scenario():
        async with serving(tmp_path) as server:
            admitted = await server.handle_request(
                {"op": "submit", "cells": [cell()]})
            assert admitted["ok"] and admitted["state"] == "queued"
            done = await wait_job(server, admitted["job"])
            assert done["state"] == "done" and done["remaining"] == 0
            (row,) = done["results"]
            assert row["status"] == "done"
            assert row["ipc"] == truth.ipc  # bit-identical to in-process
            assert server.stats.jobs_done == 1

    asyncio.run(scenario())


def test_requests_travel_the_wire(tmp_path):
    """End-to-end over the UNIX socket, one loop, no helper client."""

    async def scenario():
        async with serving(tmp_path) as server:
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / "serve.sock"))

            async def call(message):
                writer.write(protocol.encode(message))
                await writer.drain()
                return protocol.decode(await reader.readline())

            health = await call({"op": "health"})
            assert health["ok"] and health["status"] == "serving"
            admitted = await call({"op": "submit", "cells": [cell()]})
            assert admitted["ok"]
            done = await call(
                {"op": "wait", "job": admitted["job"], "timeout": 120})
            assert done["state"] == "done"
            bad = await call({"op": "frobnicate"})
            assert not bad["ok"] and bad["code"] == protocol.E_BAD_REQUEST
            garbage = await call({"op": "submit", "cells": [
                {"workload": "nope", "mode": "ooo"}]})
            assert not garbage["ok"] and garbage["code"] == protocol.E_BAD_REQUEST
            stats = await call({"op": "stats"})
            assert stats["serve"]["jobs_submitted"] == 1
            writer.close()
            await writer.wait_closed()

    asyncio.run(scenario())


def test_unparsable_wire_line_gets_a_protocol_error(tmp_path):
    async def scenario():
        async with serving(tmp_path) as server:
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / "serve.sock"))
            writer.write(b"this is not json\n")
            await writer.drain()
            response = protocol.decode(await reader.readline())
            assert not response["ok"]
            assert response["code"] == protocol.E_PROTOCOL
            writer.close()

    asyncio.run(scenario())


# -- coalescing ----------------------------------------------------------------


def test_identical_cells_coalesce_onto_one_execution(tmp_path):
    async def scenario():
        async with serving(tmp_path, jobs=1) as server:
            first = await server.handle_request(
                {"op": "submit", "cells": [cell()]})
            second = await server.handle_request(
                {"op": "submit", "cells": [cell()]})
            a = await wait_job(server, first["job"])
            b = await wait_job(server, second["job"])
            assert a["state"] == b["state"] == "done"
            assert a["results"][0]["ipc"] == b["results"][0]["ipc"]
            assert server.stats.cells_coalesced == 1
            # One execution total: the second job never touched the pool.
            assert server.pool_stats.cells_executed == 1

    asyncio.run(scenario())


# -- backpressure and priorities -----------------------------------------------


def test_full_queue_rejects_with_retry_after(tmp_path):
    async def scenario():
        async with serving(
            tmp_path, jobs=1,
            queue_limits={"interactive": 1, "bulk": 1},
        ) as server:
            first = await server.handle_request(
                {"op": "submit", "cells": [cell("pointer_chase")]})
            assert first["ok"]
            second = await server.handle_request(
                {"op": "submit", "cells": [cell("div_chain")]})
            assert not second["ok"]
            assert second["code"] == protocol.E_BUSY
            assert second["retry_after"] > 0
            assert server.stats.jobs_rejected == 1
            # A duplicate of the queued cell still coalesces right in.
            dup = await server.handle_request(
                {"op": "submit", "cells": [cell("pointer_chase")]})
            assert dup["ok"]

    asyncio.run(scenario())


def test_interactive_overtakes_queued_bulk(tmp_path):
    async def scenario():
        async with serving(tmp_path, jobs=1) as server:
            bulk = await server.handle_request(
                {"op": "sweep", "workloads": ["pointer_chase", "div_chain"],
                 "modes": ["ooo", "crisp"], "scale": FAST})
            urgent = await server.handle_request(
                {"op": "submit", "cells": [cell("mcf")]})
            done = await wait_job(server, urgent["job"])
            assert done["state"] == "done"
            # The interactive job jumped the line: of the bulk sweep's 4
            # cells at most one (the one already running when the
            # interactive job arrived) can have resolved.
            status = await server.handle_request(
                {"op": "status", "job": bulk["job"]})
            assert status["remaining"] >= 3
            final = await wait_job(server, bulk["job"])
            assert final["state"] == "done"

    asyncio.run(scenario())


# -- drain ---------------------------------------------------------------------


def test_drain_rejects_new_work_and_is_idempotent(tmp_path):
    async def scenario():
        async with serving(tmp_path) as server:
            first = await server.drain()
            assert first["finished_inflight"]
            rejected = await server.handle_request(
                {"op": "submit", "cells": [cell()]})
            assert not rejected["ok"]
            assert rejected["code"] == protocol.E_DRAINING
            assert await server.drain() is first  # idempotent

    asyncio.run(scenario())


def test_unknown_job_and_wait_timeout_codes(tmp_path):
    async def scenario():
        async with serving(tmp_path) as server:
            missing = await server.handle_request(
                {"op": "status", "job": "job-999999"})
            assert missing["code"] == protocol.E_UNKNOWN_JOB
            admitted = await server.handle_request(
                {"op": "submit", "cells": [cell()]})
            quick = await server.handle_request(
                {"op": "wait", "job": admitted["job"], "timeout": 0.001})
            if not quick["ok"]:  # the cell can only rarely win this race
                assert quick["code"] == protocol.E_TIMEOUT
                assert quick["state"] in ("queued", "running")

    asyncio.run(scenario())


_real_pool_run_cell = executor_module._pool_run_cell


def _slow_div_chain_run_cell(spec):
    """div_chain cells hang (bounded); everything else runs normally."""
    if spec.workload == "div_chain":
        time.sleep(60)
    return _real_pool_run_cell(spec)


def drain_with_div_chain_hung(tmp_path, monkeypatch, request) -> dict:
    """Admit ``request``, let every non-div_chain cell finish while the
    div_chain cells hang, drain, and return the drained job's row."""
    monkeypatch.setattr(
        executor_module, "_pool_run_cell", _slow_div_chain_run_cell)
    holder = {}

    async def scenario():
        async with serving(
            tmp_path, jobs=2, drain_timeout=0.3,
        ) as server:
            admitted = await server.handle_request(request)
            job = server._jobs[admitted["job"]]
            deadline = time.monotonic() + 60
            while any(result is None
                      for spec, result in zip(job.specs, job.results)
                      if spec.workload != "div_chain"):
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            summary = await server.drain()
            (holder["row"],) = summary["drained_jobs"]
            assert server.stats.jobs_drained == 1

    asyncio.run(scenario())
    monkeypatch.undo()
    return holder["row"]


def resume_drained(run_dir, tmp_path, monkeypatch, *flags):
    """``orchestrate run --resume --run-dir`` in-process; returns
    (exit code, labels of the cells it simulated)."""
    simulated = []
    real_run_cell_spec = executor_module.run_cell_spec

    def recording(spec):
        simulated.append(spec.label())
        return real_run_cell_spec(spec)

    monkeypatch.setattr(executor_module, "run_cell_spec", recording)
    code = orchestrate_main([
        "run", "--resume", "--run-dir", run_dir,
        "--cache-dir", str(tmp_path / "cache"), *flags])
    monkeypatch.undo()
    return code, simulated


def stored_ipcs(run_dir) -> dict:
    return {f"{c['workload']}/{c['mode']}": c["ipc"]
            for c in load_cells(run_dir).values()}


def assert_drained_run_dir(row) -> dict:
    assert row["state"] == "drained"
    manifest = load_manifest(row["checkpoint"])
    assert manifest["manifest_version"] == MANIFEST_VERSION
    assert manifest["instance"]["engine"] in ("obj", "array")
    assert manifest["instance"]["cache_schema"] == CACHE_SCHEMA_VERSION
    assert manifest["status"] == "partial"
    return manifest


def test_drain_checkpoints_unfinished_sweep_for_resume(tmp_path, monkeypatch):
    """The acceptance property: a drained sweep is a run dir that a plain
    ``orchestrate run --resume --run-dir`` finishes, simulating only the
    cell the drain cut off."""
    row = drain_with_div_chain_hung(tmp_path, monkeypatch, {
        "op": "sweep", "workloads": ["pointer_chase", "div_chain"],
        "modes": ["ooo"], "scale": FAST})
    run_dir = row["checkpoint"]
    assert run_dir == str(tmp_path / "drain" / row["job"])
    manifest = assert_drained_run_dir(row)
    assert manifest["experiment"] == "suite"
    assert stored_ipcs(run_dir) == {"pointer_chase/ooo": cell_result().ipc}

    code, simulated = resume_drained(run_dir, tmp_path, monkeypatch)
    assert code == 0
    assert simulated == ["div_chain/ooo"]
    assert load_manifest(run_dir)["status"] == "complete"
    # The same IPCs a never-drained run of the matrix gives.
    assert stored_ipcs(run_dir) == {
        "pointer_chase/ooo": cell_result().ipc,
        "div_chain/ooo": cell_result("div_chain").ipc,
    }


def test_drain_writes_an_experiment_job_as_a_resumable_run_dir(
        tmp_path, monkeypatch):
    """``experiment`` jobs drain to run dirs too, and resume the same way."""
    row = drain_with_div_chain_hung(tmp_path, monkeypatch, {
        "op": "experiment", "experiment": "suite",
        "workloads": ["pointer_chase", "div_chain"], "scale": FAST})
    manifest = assert_drained_run_dir(row)
    assert manifest["cells_done"] == 2
    run_dir = row["checkpoint"]
    assert set(stored_ipcs(run_dir)) == {
        "pointer_chase/ooo", "pointer_chase/crisp"}

    code, simulated = resume_drained(run_dir, tmp_path, monkeypatch)
    assert code == 0
    assert sorted(simulated) == ["div_chain/crisp", "div_chain/ooo"]
    assert load_manifest(run_dir)["status"] == "complete"
    assert stored_ipcs(run_dir) == {
        f"{w}/{m}": cell_result(w, m).ipc
        for w in ("pointer_chase", "div_chain") for m in ("ooo", "crisp")
    }


def test_drained_run_dir_refuses_the_other_engine(tmp_path, monkeypatch,
                                                  capsys):
    """An identity mismatch is a clean exit 1 that simulates nothing."""
    row = drain_with_div_chain_hung(tmp_path, monkeypatch, {
        "op": "sweep", "workloads": ["pointer_chase", "div_chain"],
        "modes": ["ooo"], "scale": FAST})
    recorded = assert_drained_run_dir(row)["instance"]["engine"]
    other = "array" if recorded == "obj" else "obj"
    capsys.readouterr()

    code, simulated = resume_drained(
        row["checkpoint"], tmp_path, monkeypatch, "--engine", other)
    assert code == 1
    assert simulated == []
    err = capsys.readouterr().err
    assert "identity mismatch" in err and "instance.engine" in err


# -- process-level smoke: python -m repro.serve + SIGTERM ----------------------


def test_server_process_serves_and_drains_on_sigterm(tmp_path):
    """The CI smoke path, in-repo: real process, real socket, SIGTERM."""
    script = os.path.join(
        os.path.dirname(__file__), "..", "..", "scripts", "serve_smoke.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(__file__), "..", "..", "src")
    proc = subprocess.run(
        [sys.executable, script, "--workdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SMOKE OK" in proc.stdout
