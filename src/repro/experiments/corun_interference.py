"""Co-run interference: per-core CRISP vs cross-core LLC prefetching.

The multicore headline experiment (docs/MULTICORE.md): each victim
workload runs solo and inside 2-/4-core mixes against streaming workgen
antagonists (4 MiB working set — four times the shared LLC — at high
load fraction, so they thrash LLC capacity and DRAM bandwidth). Columns
compare what the *victim's* core can do about it:

* ``none`` / ``stride`` / ``bop`` — private L1-side prefetchers,
* ``crisp`` — CRISP criticality scheduling (FDO-annotated, derived
  in-worker exactly like a solo crisp cell),
* ``llc_xcore`` — no private help; the Pickle-style cross-core prefetcher
  at the shared LLC instead.

Reported slowdown is the victim's solo IPC over its co-run IPC *on its
own clock*, each scheme normalized against its own solo configuration —
so a column isolates interference, not the scheme's solo gain. The
``xevict``/``bus-stall`` columns attribute the 4-core slowdown to shared
LLC capacity (cross-core evictions) and DRAM bandwidth (bus serialization)
contention.

Every row cell is one co-run cell through ``run_cells`` — pooled, cached,
and resumable via orchestrate run directories like any other cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..multicore import CORUN_MODE, CoreTask, CoRunSpec, corun_cell, corun_extra
from ..orchestrate import Experiment, Instance, register
from .common import ExperimentResult

#: Streaming antagonist: no pointer chasing, MLP 4, 4 MiB working set
#: (4x the shared LLC), 60% loads — maximal LLC + bandwidth pressure.
STREAM_ANTAGONIST = "gen:pcd1,mlp4,ent0.10,ws4096,sl3,lf0.60#0"


@dataclass
class CoRunInstance(Instance):
    """An Instance whose cell is an N-core co-run."""

    corun: CoRunSpec = None  # type: ignore[assignment]

    def spec(self, target, scale: float = 1.0):
        corun = self.corun
        if target.variant != "ref":
            # Seed replicas vary the victim's input (core 0); antagonists
            # keep their name-pinned seeds.
            victim = corun.cores[0]
            corun = CoRunSpec(
                cores=(CoreTask(victim.workload, victim.mode,
                                variant=target.variant,
                                critical_pcs=victim.critical_pcs,
                                crisp_config=victim.crisp_config,
                                prefetchers=victim.prefetchers),)
                + corun.cores[1:],
                llc_xcore=corun.llc_xcore,
                llc_mshrs_per_core=corun.llc_mshrs_per_core,
                shared_llc_size=corun.shared_llc_size,
            )
        return corun_cell(corun, scale=scale, config=self.config)

    def describe(self) -> dict:
        entry = super().describe()
        entry["corun"] = self.corun.to_payload()
        return entry


@register
class CoRunInterference(Experiment):
    """Victim slowdown under contention, per victim-side scheme."""

    name = "corun_interference"
    title = "Co-run interference: per-core CRISP vs cross-core LLC prefetch"
    default_workloads = ("mcf", "omnetpp")

    #: (instance suffix, victim mode, victim private prefetchers).
    SCHEMES = (
        ("", "ooo", ()),
        ("stride", "ooo", ("stride",)),
        ("bop", "ooo", ("bop",)),
        ("crisp", "crisp", ()),
    )

    def __init__(self, scale: float = 1.0, workloads: list[str] | None = None,
                 seeds: int = 1, antagonist: str = STREAM_ANTAGONIST):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self.antagonist = antagonist

    def args(self) -> dict:
        args = super().args()
        args["antagonist"] = self.antagonist
        return args

    def instances(self, target) -> list[Instance]:
        victim = target.workload
        antagonist = CoreTask(self.antagonist, "ooo", prefetchers=())
        out = []
        for suffix, mode, prefetchers in self.SCHEMES:
            task = CoreTask(victim, mode, prefetchers=prefetchers)
            tag = f"-{suffix}" if suffix else ""
            out.append(CoRunInstance(
                name=f"solo{tag}", mode=CORUN_MODE,
                corun=CoRunSpec(cores=(task,)),
            ))
            out.append(CoRunInstance(
                name=f"4core{tag}", mode=CORUN_MODE,
                corun=CoRunSpec(cores=(task,) + (antagonist,) * 3),
            ))
        plain = CoreTask(victim, "ooo", prefetchers=())
        out.append(CoRunInstance(
            name="2core", mode=CORUN_MODE,
            corun=CoRunSpec(cores=(plain, antagonist)),
        ))
        out.append(CoRunInstance(
            name="4core-xcore", mode=CORUN_MODE,
            corun=CoRunSpec(cores=(plain,) + (antagonist,) * 3,
                            llc_xcore=True),
        ))
        return out

    # -- report ----------------------------------------------------------------

    def _victim_ipc(self, cells, workload: str, instance: str) -> float:
        """Victim (core 0) IPC on its own clock, median over seed replicas."""
        import statistics

        ipcs = []
        for variant in self.variants():
            extra = corun_extra(cells[(workload, variant, instance)])
            core0 = extra["per_core"][0]
            ipcs.append(core0["retired"] / core0["cycles"])
        return statistics.median(ipcs)

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload", "solo IPC", "2-core", "4-core", "stride",
                     "bop", "CRISP", "llc_xcore", "xevict", "bus-stall"],
        )
        for workload in self.workloads:
            solo = self._victim_ipc(cells, workload, "solo")
            row = [workload, solo]
            row.append(solo / self._victim_ipc(cells, workload, "2core"))
            for suffix, _, _ in self.SCHEMES:
                tag = f"-{suffix}" if suffix else ""
                base = self._victim_ipc(cells, workload, f"solo{tag}")
                row.append(base / self._victim_ipc(cells, workload, f"4core{tag}"))
            row.append(solo / self._victim_ipc(cells, workload, "4core-xcore"))
            contended = corun_extra(cells[(workload, "ref", "4core")])["multicore"]
            row.append(contended["llc_xcore_evictions"])
            row.append(contended["dram_bus_stall_cycles"])
            result.add_row(*row)
        result.notes.append(
            "columns 2-core..llc_xcore are victim slowdowns (solo IPC / co-run "
            "IPC on the victim's own clock; > 1.0 = interference), each scheme "
            "normalized against its own solo configuration; xevict/bus-stall "
            "attribute the plain 4-core slowdown to shared-LLC capacity and "
            "DRAM bus contention."
        )
        if self.seeds > 1:
            result.notes.append(f"median over {self.seeds} seed replicas per cell")
        return result
