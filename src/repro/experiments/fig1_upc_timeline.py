"""Figure 1: UPC over time for the pointer-chase microbenchmark.

The paper's Figure 1 plots µops-retired-per-cycle for a traditional OOO
core and for CRISP over four loop iterations: the OOO core alternates
between full-width bursts and long stall valleys at each linked-list miss,
while CRISP shortens the valleys by starting the next miss under the
current iteration's vector work. This experiment regenerates both series
with a windowed UPC probe plus summary statistics (mean UPC and
stall-valley share). A cell stores no UPC timeline, so the experiment
plans no cells.
"""

from __future__ import annotations

from ..orchestrate import Experiment, register
from ..parallel.cellkey import CellSpec
from ..parallel.executor import cell_annotation
from ..sim.simulator import simulate
from ..workloads.microbench import build_pointer_chase
from .common import ExperimentResult, format_pct

#: Cycles per UPC sample.
WINDOW = 64
#: A window retiring fewer UPC than this is a stall window.
STALL_THRESHOLD = 0.5


@register
class Fig1Experiment(Experiment):
    """Windowed UPC series of OOO and CRISP on the pointer chase."""

    name = "fig1"
    title = "Figure 1: UPC timeline, OOO vs CRISP (pointer-chase microbenchmark)"
    default_workloads = ("pointer_chase",)
    fixed_workloads = True

    def table(self, plan, results) -> ExperimentResult:
        ref = build_pointer_chase("ref", self.scale)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["series", "mean UPC", "stall-window share", "windows",
                     "UPC improvement"],
        )
        timelines = {}
        for mode in ("ooo", "crisp"):
            # Each series runs with the annotation its cell would.
            critical = cell_annotation(CellSpec("pointer_chase", mode, scale=self.scale))
            sim = simulate(ref, mode, critical_pcs=critical, upc_window=WINDOW)
            timelines[mode] = [count / WINDOW for count in sim.stats.upc_timeline]
        base_upc = sum(timelines["ooo"]) / len(timelines["ooo"])
        for mode in ("ooo", "crisp"):
            series = timelines[mode]
            mean_upc = sum(series) / len(series)
            stall_share = sum(1 for u in series if u < STALL_THRESHOLD) / len(series)
            result.add_row(
                mode.upper(),
                mean_upc,
                stall_share,
                len(series),
                format_pct(mean_upc / base_upc),
            )
        result.notes.append(
            f"windowed at {WINDOW} cycles; a 'stall window' retires < "
            f"{STALL_THRESHOLD} UPC. Paper reports >30% UPC improvement; shape "
            "(shorter stall valleys under CRISP) is the reproduced claim."
        )
        result.notes.append(f"timeline lengths: {[len(t) for t in timelines.values()]}")
        return result
