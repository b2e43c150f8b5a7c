"""Bench: regenerate Table 1 (simulated system)."""

from repro.orchestrate import get_experiment


def test_table1(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("table1")().run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    assert result.row_for("ROB")[1] == "224 entries"
    assert result.row_for("Reservation Station")[1] == "96 entries (unified)"
