"""Experiments: named selections over the Target × Instance cross product.

An :class:`Experiment` declares *what* to run — its targets (workloads ×
seed replicas), its instances (mode/config columns), and how the resolved
cells become a report table. *How* cells run (pool, cache, sampling,
engine) stays in the execution layers; ``run_inline`` routes through
:func:`repro.experiments.common.run_cells`, so the CLI's
``--jobs/--cache-dir/--sample/--engine`` context applies unchanged.

Two kinds live in the registry:

* ``matrix`` — a real declarative cross product that lowers to
  :class:`~repro.parallel.cellkey.CellSpec` cells (fig7, fig9, fig10, the
  prefetcher/ratio ablations, the ``suite`` matrix). Adding a scenario is
  one registered class.
* ``legacy`` — an auto-generated wrapper around a figure module whose
  computation is not (yet) cell-shaped; it still lists, runs, and reports
  through the same CLI, so the registry covers every experiment exactly
  once (``scripts/check_experiment_registry.py``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..parallel.cellkey import CellSpec, cell_key
from ..parallel.executor import CellResult
from .instance import Instance
from .target import Target, seed_variants


@dataclass(frozen=True)
class PlannedCell:
    """One lowered cell of an experiment's matrix."""

    target: Target
    instance: Instance
    spec: CellSpec

    @property
    def key(self) -> str:
        return cell_key(self.spec)


class Experiment:
    """Base class: a named selection over the cross product + a report.

    Subclasses set ``name`` (the registry id) and ``title``, and implement
    :meth:`instances`; :meth:`table` defaults to the generic per-workload
    median-IPC matrix and is overridden by ported figure experiments to
    regenerate their exact legacy tables.
    """

    #: Registry id (``fig7``, ``ablation_ratio``, ...). Must be unique.
    name: str = ""
    #: Human title used as the report heading.
    title: str = ""
    #: ``matrix`` (lowers to cells) or ``legacy`` (wraps a figure module).
    kind: str = "matrix"
    #: Default workload selection; ``None`` = the full Figure 7 suite.
    default_workloads: tuple[str, ...] | None = None

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
    ):
        self.scale = scale
        self._workloads_arg = list(workloads) if workloads else None
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
        """The instance columns for one target.

        Most experiments return the same list for every target; per-target
        instances exist for experiments whose annotation is derived from
        the target itself (``ablation_ratio``).
        """
        raise NotImplementedError(
            f"experiment {self.name!r} must implement instances()"
        )

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
        so ported experiments keep their exact legacy numbers.
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

    def run_inline(self):
        """Plan, run under the active execution context, and build the table.

        This is the body of every ported figure module's ``run()`` shim:
        library callers and ``python -m repro.experiments <id>`` keep their
        historical behaviour (in-process by default, pool/cache/sampled
        when an ``execution_context`` is active).
        """
        from ..experiments.common import run_cells

        plan = self.plan()
        results = run_cells([cell.spec for cell in plan])
        for result in results:
            result.require_stats()
        return self.table(plan, results)


# -- legacy wrappers -----------------------------------------------------------

#: Figure modules whose run() takes no ``workloads`` selection.
TAKES_NO_WORKLOADS = frozenset(
    {"table1", "fig1", "sec31", "discussion_smt", "discussion_division"}
)
#: Figure modules whose run() takes no ``scale``.
TAKES_NO_SCALE = frozenset({"table1"})


class LegacyExperiment(Experiment):
    """Auto-generated wrapper for a figure module without a declarative port.

    It cannot lower to cells (``plan()`` is empty) but runs and reports
    through the same CLI, with the execution context applied — modules
    that internally use ``run_cells`` still get the pool and cache.
    """

    kind = "legacy"
    #: The wrapped ``repro.experiments`` module (set by :func:`make_legacy`).
    module = None

    def plan(self) -> list[PlannedCell]:
        return []

    def run_inline(self):
        kwargs = {}
        if self.name not in TAKES_NO_SCALE:
            kwargs["scale"] = self.scale
        if self._workloads_arg and self.name not in TAKES_NO_WORKLOADS:
            kwargs["workloads"] = list(self._workloads_arg)
        return self.module.run(**kwargs)


def make_legacy(exp_id: str, module) -> type[LegacyExperiment]:
    """A LegacyExperiment subclass wrapping one figure module."""
    doc = (module.__doc__ or exp_id).strip().splitlines()[0].rstrip(".")
    return type(
        f"Legacy_{exp_id}",
        (LegacyExperiment,),
        {"name": exp_id, "title": doc, "module": module},
    )


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
    """Import the figure modules (registering their declarative classes),
    then wrap every remaining figure id as a LegacyExperiment."""
    global _LOADED
    if _LOADED:
        return
    from .. import experiments
    from ..workgen import grid  # noqa: F401  (registers property_grid)

    for exp_id, module in experiments.EXPERIMENTS.items():
        if exp_id not in _REGISTRY:
            _REGISTRY[exp_id] = make_legacy(exp_id, module)
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
