"""fig8, fig12 and discussion_division plan cells.

Their rows are pinned at scale 0.2 to the figures these experiments built
from direct ``simulate()`` calls before they planned cells; both cycle
engines give these exact numbers. A warm re-run answers every cell from
the result cache.
"""

import pytest

from repro.orchestrate import execute_run, get_experiment
from repro.parallel import ResultCache

SCALE = 0.2

PINNED = {
    "fig8": (["lbm"], [["lbm", 0.9488655994471956, "+0.0%", "+6.9%", "+6.9%"]]),
    "fig12": (["mcf"], [
        ["mcf", "+4.26%", "+3.76%", 1.1348590883298657, 1.1348590883298657,
         "+0.0%"],
        ["mean", "+4.26%", "+3.76%", "", "", ""],
    ]),
    "discussion_division": (None, [
        ["baseline OOO", 1.5851158645276293, "+0.0%"],
        ["division slice prioritised (4 tagged)", 2.4761573268360597,
         "+56.2%"],
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rows_are_pinned_and_warm_runs_hit_the_cache(tmp_path, name):
    workloads, rows = PINNED[name]
    experiment = get_experiment(name)(scale=SCALE, workloads=workloads)
    cache = ResultCache(str(tmp_path / "cache"))
    cold = execute_run(experiment, out=tmp_path / "runs", cache=cache)
    assert cold["figure"].rows == rows

    cached = []
    warm = execute_run(
        get_experiment(name)(scale=SCALE, workloads=workloads),
        out=tmp_path / "runs", cache=cache,
        on_cell=lambda key, result: cached.append(result.from_cache))
    assert cached == [True] * len(experiment.plan())
    assert warm["figure"].rows == rows


def test_fig8_and_fig12_share_fig7s_cells():
    def keys(name):
        plan = get_experiment(name)(scale=0.5, workloads=["mcf"]).plan()
        return {cell.instance.name: cell.key for cell in plan}

    fig7, fig8, fig12 = keys("fig7"), keys("fig8"), keys("fig12")
    assert fig8["combined"] == fig12["crisp"] == fig7["crisp"]
    assert fig8["ooo"] == fig12["ooo"] == fig7["ooo"]
    assert len(set(fig8.values())) == 4
