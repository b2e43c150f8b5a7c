"""The end-to-end FDO flow (Figure 5)."""

import pytest

from repro.core import CrispConfig, run_crisp_flow
from repro.workloads import REGISTRY, get_workload


@pytest.fixture(scope="module")
def mcf_flow():
    return run_crisp_flow("mcf", scale=0.4)


def test_flow_produces_annotation(mcf_flow):
    assert mcf_flow.critical_pcs
    assert mcf_flow.classification.delinquent_loads
    assert mcf_flow.annotation.critical_ratio <= 0.45


def test_roots_are_tagged(mcf_flow):
    for root in mcf_flow.classification.delinquent_loads:
        if root not in mcf_flow.annotation.dropped_roots:
            assert root in mcf_flow.critical_pcs


def test_slices_match_roots(mcf_flow):
    load_roots = {s.root_pc for s in mcf_flow.load_slices()}
    assert load_roots == set(mcf_flow.classification.delinquent_loads)


def test_filtered_subset_of_raw_slices(mcf_flow):
    for s in mcf_flow.slices:
        assert mcf_flow.filtered_pcs[s.root_pc] <= (s.pcs | {s.root_pc})


def test_slice_includes_memory_carried_producers(mcf_flow):
    """mcf's cursor is spilled/reloaded; the spill store must be tagged."""
    program = get_workload("mcf", "train", scale=0.4).program
    stores = [pc for pc in mcf_flow.critical_pcs if program[pc].is_store]
    assert stores, "no spill store in the critical set"


def test_flags_disable_slice_kinds():
    no_loads = run_crisp_flow(
        "lbm", CrispConfig(use_load_slices=False, use_branch_slices=True), scale=0.4
    )
    assert not no_loads.load_slices()
    assert no_loads.branch_slices()
    no_branches = run_crisp_flow(
        "lbm", CrispConfig(use_load_slices=True, use_branch_slices=False), scale=0.4
    )
    assert not no_branches.branch_slices()


def test_metrics_for_figures(mcf_flow):
    assert mcf_flow.avg_load_slice_size > 0
    assert mcf_flow.total_critical_instructions == len(mcf_flow.critical_pcs)


def test_annotation_transfers_to_ref_variant(mcf_flow):
    """The train-derived PCs name the same instructions in the ref binary."""
    train = get_workload("mcf", "train", scale=0.4)
    ref = get_workload("mcf", "ref", scale=0.4)
    for pc in mcf_flow.critical_pcs:
        assert ref.program[pc].opcode is train.program[pc].opcode


#: Two generated programs (docs/WORKGEN.md) besides the registered analogues.
GENERATED = (
    "gen:pcd4,mlp2,ent0.50,ws256,sl3,lf0.30#0",
    "gen:pcd1,mlp4,ent0.90,ws512,sl2,lf0.20#7",
)


def test_all_variants_are_annotation_compatible():
    """Every workload's train/ref binaries must align by static PC.

    A crisp cell runs the PCs the flow derived on train against the ref
    binary, so both variants must have the same length and the same opcode
    at every PC, at any scale.
    """
    for name in REGISTRY.names() + list(GENERATED):
        for scale in (0.05, 0.5):
            train = get_workload(name, "train", scale=scale).program
            ref = get_workload(name, "ref", scale=scale).program
            assert len(train) == len(ref), (name, scale)
            assert [i.opcode for i in train] == [i.opcode for i in ref], (name, scale)


def test_variant_compatibility_guard():
    """The opcode comparison above accepts mcf's ref binary and rejects lbm's."""
    train, ref, other = (
        [i.opcode for i in get_workload(name, variant).program]
        for name, variant in (("mcf", "train"), ("mcf", "ref"), ("lbm", "ref"))
    )
    assert train == ref
    assert train != other
