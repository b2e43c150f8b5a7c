"""Table 1: the simulated system.

Renders the core configuration exactly as the paper tabulates it, from the
live defaults of :class:`repro.uarch.config.CoreConfig` -- so any drift
between the documented and simulated configuration is impossible. The
figure is the config itself, so the experiment plans no cells.
"""

from __future__ import annotations

from ..orchestrate import Experiment, register
from ..uarch.config import CoreConfig
from .common import ExperimentResult


@register
class Table1Experiment(Experiment):
    """The Table 1 core configuration; takes no workloads."""

    name = "table1"
    title = "Table 1: Simulated System"
    default_workloads = ()
    fixed_workloads = True

    def table(self, plan, results) -> ExperimentResult:
        config = CoreConfig.skylake()
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["Parameter", "Value"],
        )
        for line in config.describe().splitlines():
            name, _, value = line.partition("  ")
            result.add_row(name.strip(), value.strip())
        return result
