"""Bench: regenerate Figure 1 (UPC timeline, OOO vs CRISP)."""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment


def test_fig1_upc_timeline(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("fig1")(scale=BENCH_SCALE).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    ooo = result.row_for("OOO")
    crisp = result.row_for("CRISP")
    # Shape: CRISP raises mean UPC and shrinks the stall-valley share.
    assert crisp[1] > ooo[1]
    assert crisp[2] <= ooo[2]
