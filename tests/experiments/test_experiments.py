"""Experiment modules: smoke at reduced scale + rendering."""

import pytest

from repro.experiments.common import ExperimentResult, format_pct
from repro.orchestrate import get_experiment, registry

FAST_WORKLOADS = ["mcf", "lbm"]


def test_registry_covers_all_paper_artifacts():
    paper_artifacts = {
        "table1", "fig1", "sec31", "fig4", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12",
    }
    ablations = {
        "ablation_ratio", "ablation_prefetchers", "ablation_perfect_bp",
        "ablation_sampling",
    }
    discussion = {"discussion_smt", "discussion_division"}
    extensions = {"corun_interference", "suite", "property_grid"}
    assert set(registry()) == (
        paper_artifacts | ablations | discussion | extensions
    )


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        get_experiment("fig99")


def test_table1_renders():
    result = get_experiment("table1")().run_inline()
    text = result.to_text()
    assert "224 entries" in text
    assert "DDR4-2400" in text


def test_format_pct():
    assert format_pct(1.084) == "+8.4%"
    assert format_pct(0.95) == "-5.0%"


def test_result_table_accessors():
    r = ExperimentResult("x", "t", ["a", "b"])
    r.add_row("k1", 1.5)
    r.add_row("k2", 2.5)
    assert r.column("b") == [1.5, 2.5]
    assert r.row_for("k2") == ["k2", 2.5]
    with pytest.raises(KeyError):
        r.row_for("k3")
    assert "t" in r.to_text()


def test_fig4_small():
    result = get_experiment("fig4")(
        scale=0.3, workloads=FAST_WORKLOADS).run_inline()
    assert len(result.rows) == 2
    by_name = {row[0]: row for row in result.rows}
    # mcf's chase has real slices; lbm's loads are streams (no delinquent
    # loads at all -- its gains come from branch slices), so its row is 0.
    assert by_name["mcf"][2] > 0
    assert by_name["lbm"][1] == 0


def test_fig7_small():
    result = get_experiment("fig7")(
        scale=0.3, workloads=["mcf"], modes=("crisp", "ibda-1k")
    ).run_inline()
    assert result.rows[-1][0] == "geomean"
    assert "crisp gain" in result.headers[2]


def test_fig10_small():
    result = get_experiment("fig10")(
        scale=0.3, workloads=["mcf"], thresholds=(0.01,)).run_inline()
    assert len(result.rows) == 2  # workload + geomean


def test_fig11_small():
    result = get_experiment("fig11")(
        scale=0.3, workloads=FAST_WORKLOADS).run_inline()
    counts = result.column("critical insts")
    assert all(isinstance(c, int) for c in counts)


def test_fig12_small():
    result = get_experiment("fig12")(scale=0.3, workloads=["mcf"]).run_inline()
    assert result.rows[-1][0] == "mean"


def test_sec31_direction():
    result = get_experiment("sec31")(scale=0.4).run_inline()
    plain_ipc = result.rows[0][1]
    prefetch_ipc = result.rows[1][1]
    assert prefetch_ipc > plain_ipc


def test_fig1_produces_timelines():
    result = get_experiment("fig1")(scale=0.3).run_inline()
    assert [row[0] for row in result.rows] == ["OOO", "CRISP"]
    assert all(row[3] > 10 for row in result.rows)  # windows counted
