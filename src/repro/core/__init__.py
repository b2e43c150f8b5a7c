"""CRISP: the paper's contribution -- profiling, slicing, rewriting, IBDA."""

from .autotune import AutotuneResult, autotune_threshold
from .critical_path import CriticalPathConfig, analyze_dag, filter_slice, node_latency
from .delinquency import (
    Classification,
    DelinquencyConfig,
    classify,
    classify_stalling_instructions,
    compute_stride_scores,
    stride_predictability,
)
from .fdo import CrispConfig, CrispResult, run_crisp_flow
from .ibda import IBDA_CONFIGS, DelinquentLoadTable, IbdaEngine, InstructionSliceTable, make_ibda
from .profiler import ProfileReport, apply_sampling, profile_workload
from .report import annotated_listing, slice_report
from .rewriter import Annotation, Rewriter
from .slicer import Slice, SliceDag, dynamic_cone_size, extract_slice

__all__ = [
    "Annotation",
    "AutotuneResult",
    "autotune_threshold",
    "Classification",
    "CriticalPathConfig",
    "CrispConfig",
    "CrispResult",
    "DelinquencyConfig",
    "DelinquentLoadTable",
    "IBDA_CONFIGS",
    "IbdaEngine",
    "InstructionSliceTable",
    "ProfileReport",
    "Rewriter",
    "Slice",
    "SliceDag",
    "analyze_dag",
    "annotated_listing",
    "slice_report",
    "apply_sampling",
    "classify",
    "classify_stalling_instructions",
    "compute_stride_scores",
    "stride_predictability",
    "dynamic_cone_size",
    "extract_slice",
    "filter_slice",
    "make_ibda",
    "node_latency",
    "profile_workload",
    "run_crisp_flow",
]
