"""Target / Instance / Experiment: the declarative model and the registry."""

from __future__ import annotations

import pathlib

import pytest

from repro.orchestrate import (
    Instance,
    Target,
    experiment_names,
    get_experiment,
    registry,
)
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.instance import ooo_instance
from repro.orchestrate.target import seed_variants
from repro.parallel.cellkey import cell_key
from repro.uarch.config import CoreConfig


# -- targets and the seed axis -------------------------------------------------


def test_seed_variants_shape():
    assert seed_variants(1) == ["ref"]
    assert seed_variants(3) == ["ref", "ref#1", "ref#2"]
    with pytest.raises(ValueError, match="seeds"):
        seed_variants(0)


def test_target_identity_and_labels():
    plain = Target("mcf")
    replica = Target("mcf", "ref#2")
    assert plain.replica == 0 and replica.replica == 2
    assert plain.seed != replica.seed  # replicas perturb only the seed
    assert plain.label() == "mcf"
    assert replica.label() == "mcf:ref#2"
    described = replica.describe()
    assert described["workload"] == "mcf"
    assert described["variant"] == "ref#2"
    assert described["seed"] == replica.seed


def test_target_rejects_malformed_variant():
    with pytest.raises(ValueError):
        Target("mcf", "ref#zero")


# -- instances lower to cells --------------------------------------------------


def test_instance_lowers_to_cellspec():
    instance = Instance(name="crisp", mode="crisp", critical_pcs=(4, 8))
    spec = instance.spec(Target("mcf", "ref#1"), scale=0.5)
    assert spec.workload == "mcf"
    assert spec.variant == "ref#1"
    assert spec.mode == "crisp"
    assert spec.scale == 0.5
    assert spec.critical_pcs == (4, 8)


def test_instance_describe_distinguishes_configs():
    default = ooo_instance()
    custom = Instance(name="ooo-small", mode="ooo",
                      config=CoreConfig.skylake(rs_entries=64))
    assert default.describe()["config"] == "skylake-default"
    digest = custom.describe()["config"]
    assert digest.startswith("sha256:")
    other = Instance(name="ooo-big", mode="ooo",
                     config=CoreConfig.skylake(rs_entries=128))
    assert other.describe()["config"] != digest


def test_seed_replicas_change_the_cell_key():
    instance = ooo_instance()
    keys = {
        cell_key(instance.spec(Target("mcf", variant), 0.1))
        for variant in seed_variants(3)
    }
    assert len(keys) == 3


# -- experiment planning -------------------------------------------------------


def test_suite_plan_is_the_full_cross_product():
    exp = SuiteMatrix(scale=0.1, workloads=["mcf", "lbm"], seeds=2,
                      modes=("ooo", "crisp"))
    plan = exp.plan()
    assert len(plan) == 2 * 2 * 2  # workloads x seeds x modes
    # Deterministic target-major order.
    assert [c.target.workload for c in plan[:4]] == ["mcf"] * 4
    assert [c.instance.name for c in plan[:2]] == ["ooo", "crisp"]
    # Every planned cell has a distinct content key.
    assert len({c.key for c in plan}) == len(plan)


def test_args_round_trip_reproduces_the_plan():
    """manifest args -> constructor -> identical plan (resume/report rely
    on this for every registered matrix experiment)."""
    exp = SuiteMatrix(scale=0.2, workloads=["mcf"], seeds=2,
                      modes=("ooo", "crisp"))
    rebuilt = SuiteMatrix(**exp.args())
    assert [c.key for c in rebuilt.plan()] == [c.key for c in exp.plan()]


#: Experiments whose figure needs data no cell carries: they plan no
#: cells and compute the figure in table().
CELL_LESS = {"table1", "fig1", "sec31", "fig4", "fig11", "ablation_sampling"}


def test_registry_covers_every_figure_module_exactly_once():
    import repro.experiments as figure_modules

    reg = registry()
    assert experiment_names() == sorted(reg)
    figure_dir = pathlib.Path(figure_modules.__file__).parent
    modules = sorted(
        f"repro.experiments.{path.stem}"
        for path in figure_dir.glob("*.py")
        if path.stem not in ("__init__", "common")
    )
    registered = sorted(
        cls.__module__ for cls in reg.values()
        if cls.__module__.startswith("repro.experiments.")
    )
    assert registered == modules
    assert not hasattr(reg["fig7"], "kind")


def test_get_experiment_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown experiment"):
        get_experiment("fig99")


def test_matrix_experiments_plan_and_round_trip():
    """Every registered experiment, on its own default workloads, plans
    cells (or none, for the cell-less ones) whose keys round-trip through
    the manifest's args."""
    for name, cls in registry().items():
        exp = cls(scale=0.1)
        plan = exp.plan()
        assert bool(plan) == (name not in CELL_LESS), name
        rebuilt = cls(**exp.args())
        assert [c.key for c in rebuilt.plan()] == [c.key for c in plan], name


@pytest.mark.parametrize("name", [
    "discussion_smt", "discussion_division", "fig1", "sec31", "table1",
])
def test_fixed_workload_experiments_reject_a_workload_selection(name):
    cls = get_experiment(name)
    with pytest.raises(ValueError, match="only"):
        cls(scale=0.05, workloads=["mcf"])
    # Naming the experiment's own workloads is no selection at all.
    defaults = cls().defaults()
    assert cls(scale=0.05, workloads=defaults).workloads == defaults
