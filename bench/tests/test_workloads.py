"""The serve workload's job sequence, and its output checks on hand-made
server responses."""

from collections import Counter

from bench.golden import cell_id
from bench.workloads import Phase, ServeOpen, serve_specs


def test_every_seed_offers_the_same_mix_and_short_runs_stay_covered():
    mixes = [Counter((s.workload, s.mode) for s in serve_specs(seed, 40)) for seed in (1, 2)]
    assert mixes[0] == mixes[1]
    assert sum(n for (_, mode), n in mixes[0].items() if mode == "crisp") == 10
    # A traced half or a smoke run sends a subset of what the goldens hold.
    full = {cell_id(spec) for spec in serve_specs(3, 40)}
    assert {cell_id(spec) for spec in serve_specs(3, 20)} <= full


def done(cycles: int, retired: int) -> dict:
    return {"state": "done",
            "results": [{"status": "done", "cycles": cycles, "retired": retired}]}


def test_a_later_serve_answer_must_equal_the_first(tmp_path):
    (spec,) = serve_specs(7, 1)
    workload = ServeOpen(7, tmp_path, {})
    first, again, tampered = Phase(), Phase(), Phase()

    workload._finish(first, 0, spec, done(1000, 400), 0.0, 0.5)
    workload._finish(again, 0, spec, done(1000, 400), 1.0, 1.5)
    assert first.failed == again.failed == 0
    assert workload.verdict.unverified == 1  # seed 7 has no golden

    workload._finish(tampered, 0, spec, done(1001, 400), 2.0, 2.5)
    assert tampered.failed == 1
    assert cell_id(spec) in workload.verdict.mismatches[0]
    assert workload.answers[cell_id(spec)][1] == [1000, 400]


def test_the_first_serve_answer_is_checked_against_the_golden(tmp_path):
    (spec,) = serve_specs(7, 1)
    workload = ServeOpen(7, tmp_path, {"serve": {cell_id(spec): [1000, 400]}})
    phase = Phase()
    workload._finish(phase, 0, spec, done(999, 400), 0.0, 0.5)
    assert phase.failed == 1 and workload.verdict.checked == 1
