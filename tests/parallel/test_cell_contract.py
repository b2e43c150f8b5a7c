"""The cell contract: a cell reads its inputs through ``cell_input`` and
returns one record, which the cache and the run dir store as-is."""

from __future__ import annotations

import json
from collections import Counter

from repro.experiments.discussion_smt import DiscussionSmt
from repro.multicore import corun_cell
from repro.orchestrate import execute_run
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import load_cells
from repro.parallel import ResultCache, run_cells
from repro.uarch.stats import SimStats
from repro.workloads import base

FAST = dict(workloads=["mcf", "lbm"], modes=("ooo", "crisp"), scale=0.05)


def test_a_cell_encodes_its_stats_once_in_the_worker(tmp_path, monkeypatch):
    """Only the worker encodes a fresh cell's stats: the cache stores its
    record and the run dir copies the record's stats, so a warm re-run
    encodes nothing."""
    encodes = []
    real_to_dict = SimStats.to_dict

    def to_dict(self):
        encodes.append(self)
        return real_to_dict(self)

    monkeypatch.setattr(SimStats, "to_dict", to_dict)
    cache = ResultCache(str(tmp_path / "cache"))
    execute_run(SuiteMatrix(**FAST), run_dir=tmp_path / "cold", cache=cache)
    assert len(encodes) == 4 and cache.stats.stores == 4
    encodes.clear()
    execute_run(SuiteMatrix(**FAST), run_dir=tmp_path / "warm", cache=cache)
    assert encodes == [] and cache.stats.hits == 4

    for run_dir in ("cold", "warm"):
        cells = load_cells(tmp_path / run_dir)
        assert len(cells) == 4
        for cell in cells.values():
            with open(cache.path_for(cell["result_key"])) as handle:
                assert cell["stats"] == json.load(handle)["stats"]


def _count_builds(monkeypatch) -> Counter:
    builds: Counter = Counter()
    real_build = base.WorkloadRegistry.build

    def build(self, name, variant="ref", scale=1.0):
        builds[name, variant] += 1
        return real_build(self, name, variant, scale)

    monkeypatch.setattr(base.WorkloadRegistry, "build", build)
    return builds


def test_smt_cells_join_the_group_of_their_first_thread(monkeypatch):
    """Every discussion_smt row runs pointer_chase as thread 0, so its six
    cells are one group: each thread input is built once, and img_dnn
    once more at plan time for the attacker's tag-everything set."""
    builds = _count_builds(monkeypatch)
    DiscussionSmt(scale=0.1).run_inline()
    assert builds == {
        ("pointer_chase", "train"): 1,  # the plan-time FDO flow
        ("pointer_chase", "ref"): 1,
        ("mcf", "ref"): 1,
        ("img_dnn", "ref"): 2,
    }


def test_corun_cores_share_an_input(monkeypatch):
    """Two cores running one input share its build, with the digest the
    cell had when each core built its own."""
    builds = _count_builds(monkeypatch)
    [result] = run_cells([corun_cell("pointer_chase+img_dnn+img_dnn", scale=0.1)])
    assert builds == {("pointer_chase", "ref"): 1, ("img_dnn", "ref"): 1}
    assert result.stats.digest() == (
        "a8580360d5919019952b4acc796f282e9c5aeaeafb7e3a77d51ba57b8a030415")
