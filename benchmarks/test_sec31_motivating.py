"""Bench: regenerate the Section 3.1 manual-prefetch measurement."""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment


def test_sec31_manual_prefetch(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("sec31")(scale=BENCH_SCALE).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    plain = result.rows[0][1]
    prefetched = result.rows[1][1]
    # Paper: IPC 1.89 -> 2.71. Shape: a clear jump from the manual prefetch.
    assert prefetched / plain > 1.05
