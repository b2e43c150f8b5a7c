"""Section 6.1: stall-based classification of non-load roots."""

import pytest

from repro.core import classify_stalling_instructions, profile_workload
from repro.orchestrate import get_experiment
from repro.workloads import build_div_chain


@pytest.fixture(scope="module")
def div_profile():
    w = build_div_chain("train", scale=0.3)
    report, _ = profile_workload(w)
    return w, report


def test_division_found_as_stall_root(div_profile):
    w, report = div_profile
    roots = classify_stalling_instructions(report, w.program)
    assert roots, "the DIV chain must dominate head-of-ROB stalls"
    assert any(w.program[pc].opcode.value == "div" for pc in roots)


def test_loads_and_branches_excluded(div_profile):
    w, report = div_profile
    roots = classify_stalling_instructions(report, w.program)
    for pc in roots:
        assert not w.program[pc].is_load
        assert not w.program[pc].is_branch


def test_no_roots_without_stalls(div_profile):
    w, report = div_profile
    empty = classify_stalling_instructions(
        report, w.program, stall_contribution_min=1.1
    )
    assert empty == []


def test_division_prioritisation_end_to_end():
    result = get_experiment("discussion_division")(scale=0.3).run_inline()
    base_ipc = result.rows[0][1]
    crisp_ipc = result.rows[1][1]
    assert crisp_ipc > 1.1 * base_ipc, "division slices must pay off clearly"
