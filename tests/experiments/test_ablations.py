"""Ablation experiments (extensions beyond the paper's figures)."""

import pytest

from repro.orchestrate import get_experiment


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_ratio_dilution_decays_gain():
    result = get_experiment("ablation_ratio")(
        scale=0.35, workloads=["moses"]).run_inline()
    row = result.row_for("moses")
    real = _pct(row[1])
    fully_diluted = _pct(row[-1])  # ratio >= 100%: everything critical
    assert real > 3.0
    # Tagging everything gives the scheduler nothing to deprioritise.
    assert fully_diluted < 0.5 * real


def test_prefetcher_ablation_reports_all_sets():
    result = get_experiment("ablation_prefetchers")(
        scale=0.35, workloads=["pointer_chase"]).run_inline()
    row = result.row_for("pointer_chase")
    assert len(row) == 5  # name + 4 prefetcher sets
    # CRISP gains in every configuration.
    for cell in row[1:]:
        gain = _pct(cell.split("/")[1].strip())
        assert gain > 0.0, cell


def test_perfect_bp_bounds_branch_slice_headroom():
    result = get_experiment("ablation_perfect_bp")(
        scale=0.4, workloads=["lbm", "deepsjeng"]).run_inline()
    # deepsjeng carries real load slices whose payoff grows once branches
    # resolve early (the oracle predictor) -- Section 5.3's observation.
    sjeng = result.row_for("deepsjeng")
    assert _pct(sjeng[2]) > _pct(sjeng[1])
    # lbm has no delinquent loads at all (its loads are streams): the
    # load-only columns are zero and ALL of its gain comes from branch
    # slices on the real predictor.
    lbm = result.row_for("lbm")
    assert _pct(lbm[1]) == pytest.approx(0.0, abs=0.5)
    assert _pct(lbm[3]) > 2.0


def test_sampling_keeps_classification_stable():
    result = get_experiment("ablation_sampling")(
        scale=0.35, workloads=["mcf"]).run_inline()
    row = result.row_for("mcf")
    assert float(row[1]) == 1.0  # period 1 == exact
    assert float(row[2]) >= 0.5  # period 4 keeps most of the set
