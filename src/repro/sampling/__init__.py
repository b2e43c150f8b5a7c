"""Sampled simulation: one-pass functional warmup + detailed intervals.

Full cycle-accurate simulation pays detailed-pipeline cost on every
dynamic instruction; this package reproduces the standard simulator
answer — statistically sampled simulation — so long workloads become
affordable (docs/SAMPLING.md):

* :mod:`intervals`  — interval specs, trace slicing, the ``--sample``
  plan grammar (``off | smarts:<detail>/<period> | simpoint:<k>[/<i>]``),
* :mod:`warmup`     — functional warming of caches / TAGE / BTB / RAS /
  prefetcher tables across skipped regions,
* :mod:`bbv` / :mod:`simpoint` — basic-block vectors, pure-python
  k-means, representative-interval selection with weights,
* :mod:`estimate`   — exact :meth:`SimStats.merge` composition plus a
  CPI-sample mean with a 95% confidence interval on IPC,
* :mod:`sampler`    — the per-run loop (one warmer walked forward through
  the trace, a copy of its state per detailed interval),
* :mod:`cells`      — one sampled cell per parent over the repro.parallel
  pool/cache.
"""

from __future__ import annotations

from .cells import run_cells_sampled
from .estimate import SampledEstimate, estimate_from_intervals
from .intervals import (
    Interval,
    SamplingPlan,
    TraceSlice,
    parse_sample,
    slice_trace,
    systematic_intervals,
)
from .sampler import plan_for_trace, simulate_interval, simulate_sampled
from .simpoint import pick_representatives, simpoint_intervals
from .warmup import FunctionalWarmer, pipeline_state_digest, state_digest

__all__ = [
    "FunctionalWarmer",
    "Interval",
    "SampledEstimate",
    "SamplingPlan",
    "TraceSlice",
    "estimate_from_intervals",
    "parse_sample",
    "pick_representatives",
    "pipeline_state_digest",
    "plan_for_trace",
    "run_cells_sampled",
    "simpoint_intervals",
    "simulate_interval",
    "simulate_sampled",
    "slice_trace",
    "state_digest",
    "systematic_intervals",
]
