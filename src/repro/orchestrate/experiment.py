"""Experiments: named selections over the Target × Instance cross product.

An :class:`Experiment` declares *what* to run — its targets (workloads ×
seed replicas), its instances (mode/config columns), and how the resolved
cells become a report table. *How* cells run (pool, cache, retry
policy, sampling, engine) is not the experiment's business: ``run_inline``
and ``execute_run`` take those settings as arguments and hand them to
:func:`repro.parallel.executor.run_cells`, the one cell runner.

Every paper table and figure is one registered class, reached by name
through :func:`get_experiment` or ``python -m repro.orchestrate run
--experiment NAME``. Most lower to :class:`~repro.parallel.cellkey.CellSpec`
cells; an experiment whose figure needs data no cell carries (a core
config, a UPC timeline, an FDO-only analysis) plans no cells and builds
its figure in :meth:`Experiment.table`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import cached_property

from ..parallel.cellkey import CellSpec, cell_key
from ..parallel.executor import CellResult, run_cells
from .instance import Instance
from .target import Target, seed_variants


@dataclass(frozen=True)
class PlannedCell:
    """One lowered cell of an experiment's matrix."""

    target: Target
    instance: Instance
    spec: CellSpec

    @cached_property
    def key(self) -> str:
        """The spec's cell key, hashed once (``CellSpec`` is frozen)."""
        return cell_key(self.spec)


class Experiment:
    """Base class: a named selection over the cross product + a report.

    Subclasses set ``name`` (the registry id) and ``title``, implement
    :meth:`instances`, and override :meth:`table` to render their figure;
    the default table is the generic per-workload median-IPC matrix. An
    experiment that plans no cells computes its whole figure in
    :meth:`table`.
    """

    #: Registry id (``fig7``, ``ablation_ratio``, ...). Must be unique.
    name: str = ""
    #: Human title used as the report heading.
    title: str = ""
    #: Default workload selection; ``None`` = the full Figure 7 suite.
    default_workloads: tuple[str, ...] | None = None
    #: True when the figure is defined on ``default_workloads`` only;
    #: any other workload selection is then a ``ValueError``.
    fixed_workloads: bool = False

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
    ):
        self.scale = scale
        self._workloads_arg = list(workloads) if workloads else None
        if (self.fixed_workloads and self._workloads_arg is not None
                and self._workloads_arg != self.defaults()):
            raise ValueError(
                f"experiment {self.name!r} runs on {self.defaults()} only, "
                f"not {self._workloads_arg}"
            )
        self.workloads = self._workloads_arg or self.defaults()
        self.seeds = seeds

    # -- selection -------------------------------------------------------------

    def defaults(self) -> list[str]:
        if self.default_workloads is not None:
            return list(self.default_workloads)
        from ..workloads import suite_names

        return suite_names()

    def variants(self) -> list[str]:
        """The seed axis: ``ref`` plus ``seeds - 1`` replicas."""
        return seed_variants(self.seeds)

    def targets(self) -> list[Target]:
        return [
            Target(workload, variant)
            for workload in self.workloads
            for variant in self.variants()
        ]

    def instances(self, target: Target) -> list[Instance]:
        """The instance columns for one target (none: the plan is empty).

        Most experiments return the same list for every target; per-target
        instances exist for experiments whose annotation is derived from
        the target itself (``ablation_ratio``).
        """
        return []

    def plan(self) -> list[PlannedCell]:
        """The full lowered matrix, in deterministic target-major order."""
        return [
            PlannedCell(target, instance, instance.spec(target, self.scale))
            for target in self.targets()
            for instance in self.instances(target)
        ]

    # -- args round-trip (manifest) --------------------------------------------

    def args(self) -> dict:
        """Constructor arguments, JSON-shaped (manifest ``args`` entry)."""
        return {
            "scale": self.scale,
            "workloads": self._workloads_arg,
            "seeds": self.seeds,
        }

    # -- reporting -------------------------------------------------------------

    @staticmethod
    def results_map(
        plan: list[PlannedCell], results: list[CellResult]
    ) -> dict[tuple[str, str, str], CellResult]:
        """Index results by (workload, variant, instance name)."""
        return {
            (cell.target.workload, cell.target.variant, cell.instance.name): result
            for cell, result in zip(plan, results)
        }

    def ipc(self, cells: dict, workload: str, instance: str) -> float:
        """Median IPC of one (workload, instance) over the seed axis.

        With a single seed this is *the* IPC, bit-identical to a direct
        run — ``statistics.median`` of one element returns it unchanged —
        so a single-seed table equals one built from direct runs.
        """
        ipcs = [
            cells[(workload, variant, instance)].require_stats().ipc
            for variant in self.variants()
        ]
        return statistics.median(ipcs)

    def instance_names(self) -> list[str]:
        """Column order for generic tables (first target's instances)."""
        targets = self.targets()
        if not targets:
            return []
        return [instance.name for instance in self.instances(targets[0])]

    def table(self, plan: list[PlannedCell], results: list[CellResult]):
        """Generic matrix table: one row per workload, median IPC per instance."""
        from ..experiments.common import ExperimentResult

        cells = self.results_map(plan, results)
        names = self.instance_names()
        result = ExperimentResult(
            experiment=self.name,
            title=self.title or self.name,
            headers=["workload"] + [f"{n} IPC" for n in names],
        )
        for workload in self.workloads:
            result.add_row(
                workload,
                *[self.ipc(cells, workload, name) for name in names],
            )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell "
                "(aggregate table has the stdev)"
            )
        return result

    # -- execution -------------------------------------------------------------

    def run_inline(self, **execution):
        """Plan, run the cells, and build the table.

        The library entry point (``get_experiment(name)(...).run_inline()``).
        ``execution`` is :func:`~repro.parallel.executor.run_cells`'s
        keyword arguments (``jobs``, ``cache``, ``policy``, ``sample``,
        ``engine``, ...); without them every cell runs in this process,
        uncached and unsampled. No run directory is written.
        """
        plan = self.plan()
        results = run_cells([cell.spec for cell in plan], **execution)
        for result in results:
            result.require_stats()
        return self.table(plan, results)


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, type[Experiment]] = {}
_LOADED = False


def register(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator: add an Experiment to the registry under its name."""
    if not cls.name:
        raise ValueError(f"experiment class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate experiment {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_loaded() -> None:
    """Import the figure modules, each of which registers its experiment."""
    global _LOADED
    if _LOADED:
        return
    from .. import experiments  # noqa: F401  (registers the figures)
    from ..workgen import grid  # noqa: F401  (registers property_grid)

    _LOADED = True


def registry() -> dict[str, type[Experiment]]:
    """The full (id -> Experiment class) registry."""
    _ensure_loaded()
    return dict(_REGISTRY)


def experiment_names() -> list[str]:
    return sorted(registry())


def get_experiment(name: str) -> type[Experiment]:
    reg = registry()
    try:
        return reg[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; known: {sorted(reg)}"
        ) from None


# -- the whole-suite matrix ----------------------------------------------------


@register
class SuiteMatrix(Experiment):
    """The whole-suite (workload × mode) matrix as an Experiment.

    The generic report applies: per-workload median IPC per mode, with
    stdev over seed replicas in the aggregate table — the thousand-cell
    shape the orchestration layer exists for. The job server's ``sweep``
    op lowers to it, so a drained sweep resumes like any run dir.
    """

    name = "suite"
    title = "Suite matrix: IPC per workload x mode"

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
        modes: tuple[str, ...] = ("ooo", "crisp"),
    ):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self.modes = tuple(modes)

    def args(self) -> dict:
        args = super().args()
        args["modes"] = list(self.modes)
        return args

    def instances(self, target: Target) -> list[Instance]:
        return [Instance(name=mode, mode=mode) for mode in self.modes]
