"""Threshold auto-tuning (Section 5.5 extension)."""

import pytest

from repro.core import autotune_threshold
from repro.sim import simulate
from repro.workloads import get_workload
from repro.workloads.base import WorkloadRegistry


@pytest.fixture(scope="module")
def tuned():
    return autotune_threshold("mcf", thresholds=(0.05, 0.01), scale=0.35)


def test_all_candidates_evaluated(tuned):
    assert set(tuned.candidates) == {0.05, 0.01}
    assert tuned.baseline_ipc > 0


def test_selection_uses_train_input_only(tuned):
    # The winner is the candidate with the best train-input IPC.
    if tuned.best_threshold is not None:
        best_ipc = tuned.candidates[tuned.best_threshold][0]
        assert best_ipc == max(ipc for ipc, _ in tuned.candidates.values())
        assert best_ipc > tuned.baseline_ipc


def test_best_annotation_transfers_to_ref(tuned):
    if tuned.best_threshold is None:
        pytest.skip("no winning threshold at this scale")
    ref = get_workload("mcf", "ref", scale=0.35)
    base = simulate(ref, "ooo").ipc
    crisp = simulate(ref, "crisp", critical_pcs=tuned.best_critical_pcs).ipc
    assert crisp > base * 0.99  # deploying the tuned annotation must not hurt


def test_summary_renders(tuned):
    text = tuned.summary()
    assert "autotune mcf" in text
    assert "T=" in text


def test_train_input_is_built_once(monkeypatch):
    """The baseline and every threshold are cells of one input group: the
    train input is built (and emulated) once, not once per threshold."""
    builds = []
    real_build = WorkloadRegistry.build

    def counting(self, name, variant="ref", scale=1.0):
        builds.append((name, variant))
        return real_build(self, name, variant=variant, scale=scale)

    monkeypatch.setattr(WorkloadRegistry, "build", counting)
    tuned = autotune_threshold("mcf", thresholds=(0.05, 0.01), scale=0.1)
    assert set(tuned.candidates) == {0.05, 0.01}
    assert builds == [("mcf", "train")]
