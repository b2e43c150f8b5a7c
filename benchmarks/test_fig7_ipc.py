"""Bench: regenerate Figure 7 (IPC improvement of CRISP and IBDA over OOO).

The headline result. Shape assertions mirror Section 5.2's findings:
CRISP's mean gain is clearly positive with a wide per-app spread; IBDA
trails CRISP on average and cannot match it on the apps whose slices cross
memory (moses, namd) regardless of IST size.
"""

from conftest import BENCH_SCALE

from repro.orchestrate import get_experiment

MODES = ("crisp", "ibda-1k", "ibda-inf")


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_fig7_ipc(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("fig7")(scale=BENCH_SCALE, modes=MODES).run_inline(
            **bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    by_name = {row[0]: row for row in result.rows}
    crisp_col = result.headers.index("crisp gain")
    ibda1k_col = result.headers.index("ibda-1k gain")
    ibdainf_col = result.headers.index("ibda-inf gain")

    mean = by_name["geomean"]
    assert _pct(mean[crisp_col]) > 2.0, "CRISP mean gain must be clearly positive"
    assert _pct(mean[crisp_col]) > _pct(mean[ibda1k_col]), "CRISP must beat IBDA on average"

    # Per-app shape (Section 5.2's discussion):
    assert _pct(by_name["moses"][crisp_col]) > 8.0, "moses is the flagship gain"
    assert _pct(by_name["moses"][ibdainf_col]) < 0.5 * _pct(by_name["moses"][crisp_col]), (
        "even an infinite IST cannot follow moses's memory-carried slices"
    )
    assert _pct(by_name["namd"][crisp_col]) > _pct(by_name["namd"][ibda1k_col])
    gains = [_pct(by_name[n][crisp_col]) for n in by_name if n != "geomean"]
    assert max(gains) > 8.0
    assert min(gains) > -2.0, "CRISP must not meaningfully regress anywhere"
