"""Bench: regenerate Figure 9 (RS/ROB size sensitivity)."""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment

WORKLOADS = ["xhpcg", "moses", "mcf", "pointer_chase"]


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_fig9_rs_rob(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("fig9")(
            scale=BENCH_SCALE, workloads=WORKLOADS).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    by_name = {row[0]: row for row in result.rows}
    skylake = result.headers.index("96RS/224ROB")
    doubled = result.headers.index("192RS/448ROB")
    # Section 5.4: CRISP keeps a clearly positive gain across all window
    # sizes, and xhpcg benefits from larger windows.
    for name in WORKLOADS:
        for col in (skylake, doubled):
            assert _pct(by_name[name][col]) > -1.0, (name, result.headers[col])
    assert _pct(by_name["xhpcg"][doubled]) >= _pct(by_name["xhpcg"][skylake]) - 0.5
