"""Bench: regenerate Figure 8 (load vs branch slices vs combined)."""

from conftest import BENCH_SCALE, SWEEP_WORKLOADS

from repro.orchestrate import get_experiment


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_fig8_branch_slicing(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("fig8")(
            scale=BENCH_SCALE, workloads=SWEEP_WORKLOADS).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    by_name = {row[0]: row for row in result.rows}
    load_col = result.headers.index("load slices")
    branch_col = result.headers.index("branch slices")
    both_col = result.headers.index("combined")

    # Section 5.3 shapes: lbm gains come from branch slices; for every app
    # the combination roughly matches or beats the better single kind.
    assert _pct(by_name["lbm"][branch_col]) > _pct(by_name["lbm"][load_col])
    assert _pct(by_name["lbm"][branch_col]) > 2.0
    for name in SWEEP_WORKLOADS:
        row = by_name[name]
        best_single = max(_pct(row[load_col]), _pct(row[branch_col]))
        assert _pct(row[both_col]) >= best_single - 1.5, name
