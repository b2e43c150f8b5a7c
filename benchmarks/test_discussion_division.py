"""Bench: regenerate the Section 6.1 division-criticality study."""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_discussion_division(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("discussion_division")(scale=BENCH_SCALE).run_inline(
            **bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    assert _pct(result.rows[1][2]) > 15.0, (
        "prioritising the division slice must recover a large share of the "
        "divider-latency stalls"
    )
