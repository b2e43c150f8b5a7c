"""One experiment module per paper table/figure.

Importing this package registers every figure's
:class:`~repro.orchestrate.Experiment` (one per module); run one with
``python -m repro.orchestrate run --experiment <id>`` or, from Python,
``get_experiment(id)(...).run_inline()``. See DESIGN.md's per-experiment
index and EXPERIMENTS.md for paper-vs-measured records.
"""

from . import (  # noqa: F401  (each module registers its experiment)
    ablation_perfect_bp,
    ablation_prefetchers,
    ablation_ratio,
    ablation_sampling,
    corun_interference,
    discussion_division,
    discussion_smt,
    fig1_upc_timeline,
    fig4_slice_size,
    fig7_ipc,
    fig8_branch_slicing,
    fig9_rs_rob,
    fig10_threshold,
    fig11_critical_count,
    fig12_footprint,
    sec31_motivating,
    table1_config,
)
from .common import ExperimentResult

__all__ = ["ExperimentResult"]
