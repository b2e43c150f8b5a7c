"""Every entry point gives the cell path's answer for the same cell.

mcf at scale 0.2 in ``ooo``, ``crisp`` and ``ibda-1k``: the summary
``python -m repro simulate`` prints, with and without ``--sample``, the
IPCs of ``compare_workload``, of fig7's ``run_inline()`` and of the serve
``submit`` op must equal :func:`~repro.parallel.executor.run_cells` on the
same :class:`~repro.parallel.cellkey.CellSpec`, and ``autotune_threshold``
must report the IPCs of its ``variant="train"`` cells. A crisp run that
skipped the FDO flow would answer like ``ooo`` and fail here.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.__main__ import main
from repro.core import CrispConfig, DelinquencyConfig, autotune_threshold
from repro.experiments.common import format_pct
from repro.orchestrate import get_experiment
from repro.parallel import CellSpec, run_cells
from repro.serve.server import SimServer
from repro.sim import compare_workload
from repro.workloads.base import WorkloadRegistry

SCALE = 0.2
MODES = ("ooo", "crisp", "ibda-1k")
SAMPLE = "smarts:100/1000"


def specs(**kw) -> list[CellSpec]:
    return [CellSpec("mcf", mode, scale=SCALE, **kw) for mode in MODES]


@pytest.fixture(scope="module")
def cells():
    return dict(zip(MODES, run_cells(specs())))


@pytest.fixture(scope="module")
def sampled_cells():
    return dict(zip(MODES, run_cells(specs(), sample=SAMPLE)))


def simulate_cli(capsys, mode, *flags) -> list[str]:
    argv = ["simulate", "mcf", "--mode", mode, "--scale", str(SCALE), *flags]
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("mode", MODES)
def test_cli_simulate_prints_the_cell(mode, cells, capsys):
    assert simulate_cli(capsys, mode) == [cells[mode].stats.summary()]


@pytest.mark.parametrize("mode", MODES)
def test_cli_sampled_simulate_prints_the_sampled_cell(mode, sampled_cells, capsys):
    cell = sampled_cells[mode]
    assert simulate_cli(capsys, mode, "--sample", SAMPLE) == [
        cell.estimate.summary(), cell.stats.summary()]


def test_cli_train_crisp_run_builds_its_input_once(monkeypatch, capsys):
    """``simulate --variant train --mode crisp`` profiles the input it then
    simulates, as the train crisp cell does: one build, the cell's summary."""
    (cell,) = run_cells([CellSpec("mcf", "crisp", scale=SCALE, variant="train")])
    builds = []
    real_build = WorkloadRegistry.build

    def counting(self, name, variant="ref", scale=1.0):
        builds.append((name, variant, scale))
        return real_build(self, name, variant=variant, scale=scale)

    monkeypatch.setattr(WorkloadRegistry, "build", counting)
    assert simulate_cli(capsys, "crisp", "--variant", "train") == [
        cell.stats.summary()]
    assert builds == [("mcf", "train", SCALE)]


def test_the_crisp_cell_is_annotated(cells):
    # Otherwise the crisp cases above would compare two ooo answers.
    assert cells["crisp"].critical_pcs
    assert cells["crisp"].ipc != cells["ooo"].ipc


def test_compare_workload_gives_the_cells(cells):
    comparison = compare_workload("mcf", scale=SCALE, modes=MODES)
    assert {mode: comparison.ipc(mode) for mode in MODES} == {
        mode: cell.ipc for mode, cell in cells.items()}
    assert tuple(sorted(comparison.crisp_result.critical_pcs)) == (
        cells["crisp"].critical_pcs)


def test_fig7_run_inline_gives_the_cells(cells):
    seen = []
    table = get_experiment("fig7")(
        scale=SCALE, workloads=["mcf"], modes=MODES[1:],
    ).run_inline(on_result=seen.append)
    assert {r.spec.mode: r.ipc for r in seen} == {
        mode: cell.ipc for mode, cell in cells.items()}
    base = cells["ooo"].ipc
    assert table.row_for("mcf") == ["mcf", base] + [
        format_pct(cells[mode].ipc / base) for mode in MODES[1:]]


def test_serve_submit_gives_the_cells(cells, tmp_path):
    async def scenario():
        server = SimServer(jobs=1, tick=0.01, drain_dir=str(tmp_path / "drain"))
        await server.start(socket_path=str(tmp_path / "serve.sock"))
        try:
            admitted = await server.handle_request({"op": "submit", "cells": [
                {"workload": "mcf", "mode": mode, "scale": SCALE}
                for mode in MODES]})
            return await server.handle_request(
                {"op": "wait", "job": admitted["job"], "timeout": 300.0})
        finally:
            await server.stop()

    done = asyncio.run(scenario())
    assert done["state"] == "done"
    for mode, row in zip(MODES, done["results"]):
        assert (row["ipc"], row["cycles"]) == (
            cells[mode].ipc, cells[mode].stats.cycles), mode


def test_autotune_reports_its_train_cells():
    thresholds = (0.05, 0.01)
    tuned = autotune_threshold("mcf", thresholds=thresholds, scale=SCALE)
    base, *candidates = run_cells(
        [CellSpec("mcf", "ooo", scale=SCALE, variant="train")] + [
            CellSpec("mcf", "crisp", scale=SCALE, variant="train",
                     crisp_config=CrispConfig(
                         delinquency=DelinquencyConfig().with_threshold(t)))
            for t in thresholds])
    assert tuned.baseline_ipc == base.ipc
    assert {t: tuned.candidates[t][0] for t in thresholds} == {
        t: cell.ipc for t, cell in zip(thresholds, candidates)}
    if tuned.best_threshold is not None:
        best = candidates[thresholds.index(tuned.best_threshold)]
        assert tuned.best_critical_pcs == frozenset(best.critical_pcs)
