"""Top-level simulate() API."""

import pytest

from repro.sim import MODES, simulate
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_mcf():
    return get_workload("mcf", "ref", scale=0.3)


def test_all_modes_run(small_mcf):
    for mode in MODES:
        # Crisp mode needs an annotation; the empty one tags nothing.
        kwargs = {"critical_pcs": frozenset()} if mode == "crisp" else {}
        result = simulate(small_mcf, mode, **kwargs)
        assert result.stats.retired == len(small_mcf.trace())
        assert result.mode == mode
        assert result.workload_name == "mcf"


def test_unknown_mode_rejected(small_mcf):
    with pytest.raises(ValueError, match="unknown mode"):
        simulate(small_mcf, "runahead")


def test_crisp_mode_without_annotation_is_rejected(small_mcf):
    """The crisp scheduler with nothing tagged answers like ooo; simulate()
    refuses to run it unless the empty annotation is passed explicitly."""
    with pytest.raises(ValueError, match="needs critical_pcs"):
        simulate(small_mcf, "crisp")


def test_crisp_mode_uses_annotation(small_mcf):
    tagged = simulate(small_mcf, "crisp", critical_pcs=frozenset({5, 6}))
    assert tagged.critical_pcs == frozenset({5, 6})
    assert tagged.stats.issued_critical > 0


def test_ooo_ignores_critical_pcs(small_mcf):
    base = simulate(small_mcf, "ooo")
    assert base.critical_pcs == frozenset()
    assert base.stats.issued_critical == 0


def test_non_crisp_modes_reject_annotations(small_mcf):
    """Annotations outside crisp mode would be silently ignored — a
    mislabeled sweep; simulate() must refuse instead."""
    for mode in MODES:
        if mode == "crisp":
            continue
        with pytest.raises(ValueError, match="critical_pcs"):
            simulate(small_mcf, mode, critical_pcs=frozenset({5}))
    # An empty set is the explicit "no annotation" value and stays legal.
    assert simulate(small_mcf, "ooo", critical_pcs=frozenset()).stats.retired


def test_deterministic_given_same_inputs(small_mcf):
    a = simulate(small_mcf, "ooo")
    b = simulate(small_mcf, "ooo")
    assert a.stats.cycles == b.stats.cycles


def test_upc_window_plumbs_through(small_mcf):
    result = simulate(small_mcf, "ooo", upc_window=32)
    assert result.stats.upc_timeline
