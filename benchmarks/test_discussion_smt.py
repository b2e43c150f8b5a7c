"""Bench: regenerate the Section 6.2 SMT criticality study."""

from repro.orchestrate import get_experiment


def test_discussion_smt(benchmark, record_result, bench_execution):
    result = benchmark.pedantic(
        lambda: get_experiment("discussion_smt")(scale=1.0).run_inline(**bench_execution),
        rounds=1,
        iterations=1,
    )
    record_result(result)
    rows = {row[0]: row for row in result.rows}
    baseline = rows["SLO pair, fair round-robin"][1]
    slo = rows["SLO pair, latency thread critical"][1]
    assert slo <= baseline, "SLO priority must not slow the latency thread"
    no_attack = rows["DoS pair, no attack"][1]
    attacked = rows["DoS pair, attacker tags everything"][1]
    guarded = rows["DoS pair, attack + fairness guard (2 slots)"][1]
    assert attacked > 1.05 * no_attack, "the DoS attack must bind"
    assert guarded < attacked, "the fairness guard must mitigate"
