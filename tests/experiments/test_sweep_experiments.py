"""Small-scale smoke tests for the sweep experiments (fig8/fig9/SMT)."""

from repro.orchestrate import get_experiment


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_fig8_small_scale():
    result = get_experiment("fig8")(scale=0.3, workloads=["lbm"]).run_inline()
    row = result.row_for("lbm")
    load_col = result.headers.index("load slices")
    branch_col = result.headers.index("branch slices")
    assert _pct(row[branch_col]) > _pct(row[load_col])


def test_fig9_small_scale():
    result = get_experiment("fig9")(scale=0.3, workloads=["mcf"]).run_inline()
    row = result.row_for("mcf")
    # Gains at every window size, within noise of each other for mcf.
    gains = [_pct(cell) for cell in row[1:]]
    assert all(g > 0 for g in gains)


def test_discussion_smt_small_scale():
    result = get_experiment("discussion_smt")(scale=0.4).run_inline()
    rows = {row[0]: row for row in result.rows}
    assert len(rows) == 6
    # SLO priority must not slow the latency thread.
    assert (
        rows["SLO pair, latency thread critical"][1]
        <= rows["SLO pair, fair round-robin"][1]
    )
