"""Canonical cell keys: stability, sensitivity, and canonicalization."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.fdo import CrispConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.parallel import CACHE_SCHEMA_VERSION, CellSpec, cell_key, cell_payload
from repro.uarch.config import CoreConfig

BASE = CellSpec(workload="mcf", mode="ooo", scale=0.1)


def test_key_is_stable_across_calls():
    assert cell_key(BASE) == cell_key(CellSpec(workload="mcf", mode="ooo", scale=0.1))


def test_key_is_hex_sha256():
    key = cell_key(BASE)
    assert len(key) == 64
    int(key, 16)  # parses as hex


@pytest.mark.parametrize(
    "other",
    [
        CellSpec(workload="lbm", mode="ooo", scale=0.1),
        CellSpec(workload="mcf", mode="crisp", scale=0.1),
        CellSpec(workload="mcf", mode="ooo", scale=0.2),
        CellSpec(workload="mcf", mode="ooo", scale=0.1, variant="train"),
        CellSpec(workload="mcf", mode="ooo", scale=0.1,
                 config=CoreConfig.plus50()),
        CellSpec(workload="mcf", mode="ooo", scale=0.1,
                 config=CoreConfig.skylake(
                     hierarchy=HierarchyConfig(prefetchers=()))),
    ],
)
def test_key_distinguishes_cell_inputs(other):
    assert cell_key(BASE) != cell_key(other)


def test_explicit_skylake_config_matches_default():
    """config=None means the Table 1 preset, so the keys must agree."""
    explicit = CellSpec(workload="mcf", mode="ooo", scale=0.1,
                        config=CoreConfig.skylake())
    assert cell_key(BASE) == cell_key(explicit)


def test_critical_pcs_are_order_independent():
    a = CellSpec(workload="mcf", mode="crisp", scale=0.1, critical_pcs=(3, 1, 2))
    b = CellSpec(workload="mcf", mode="crisp", scale=0.1, critical_pcs=(1, 2, 3))
    assert cell_key(a) == cell_key(b)


def test_explicit_vs_derived_annotation_differ():
    derived = CellSpec(workload="mcf", mode="crisp", scale=0.1)
    explicit = CellSpec(workload="mcf", mode="crisp", scale=0.1, critical_pcs=(1,))
    assert cell_key(derived) != cell_key(explicit)


def test_crisp_config_recipe_is_part_of_the_key():
    default = CellSpec(workload="mcf", mode="crisp", scale=0.1)
    explicit_default = CellSpec(workload="mcf", mode="crisp", scale=0.1,
                                crisp_config=CrispConfig())
    tweaked = CellSpec(workload="mcf", mode="crisp", scale=0.1,
                       crisp_config=CrispConfig(max_instances=8))
    assert cell_key(default) == cell_key(explicit_default)
    assert cell_key(default) != cell_key(tweaked)


def test_execution_knobs_do_not_change_the_key():
    """Budget/invariants/crash-dir change how a cell runs, not its result."""
    knobs = CellSpec(workload="mcf", mode="ooo", scale=0.1,
                     invariants="full", cycle_budget=10_000, crash_dir="/tmp/x")
    assert cell_key(BASE) == cell_key(knobs)


def test_payload_names_every_result_relevant_input():
    payload = cell_payload(BASE)
    assert payload["schema"] == CACHE_SCHEMA_VERSION
    assert payload["workload"] == "mcf"
    assert payload["variant"] == "ref"
    assert isinstance(payload["seed"], int)
    assert payload["mode"] == "ooo"
    config_fields = {f.name for f in dataclasses.fields(CoreConfig)}
    assert set(payload["config"]) == config_fields


def test_schema_version_changes_the_key(monkeypatch):
    import repro.parallel.cellkey as cellkey_mod

    before = cell_key(BASE)
    monkeypatch.setattr(cellkey_mod, "CACHE_SCHEMA_VERSION",
                        cellkey_mod.CACHE_SCHEMA_VERSION + 1)
    assert cell_key(BASE) != before


def test_full_run_keys_are_the_v2_keys():
    """Sampled cells add a key entry; full-run keys, cache entries and run
    dirs written before stay valid (these are v2 keys, pinned)."""
    assert CACHE_SCHEMA_VERSION == 2
    assert "sample" not in cell_payload(BASE)
    assert cell_key(BASE) == (
        "9e1b663fc30d052a3fc5c716a67502bf36fa86b5e1435e6d199571556feb3a1c")
    assert cell_key(CellSpec(workload="mcf", mode="crisp", scale=0.1)) == (
        "5e6f007d034d83279dbb1996cc76bd90963979f005c4fb722283d8ad53d8ea75")
    assert cell_key(dataclasses.replace(BASE, sample="off")) == cell_key(BASE)


def test_sample_token_is_part_of_the_key():
    tokens = ["smarts:1000/10000", "smarts:400/2000", "simpoint:4/1000"]
    keys = {cell_key(dataclasses.replace(BASE, sample=token)) for token in tokens}
    assert len(keys) == len(tokens)
    assert cell_key(BASE) not in keys
    assert cell_payload(dataclasses.replace(BASE, sample=tokens[0]))["sample"] == tokens[0]
