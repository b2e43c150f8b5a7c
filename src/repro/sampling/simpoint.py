"""SimPoint-style representative-interval selection.

Clusters per-interval basic-block vectors (:mod:`repro.sampling.bbv`) and
keeps one representative interval per cluster — the member closest to the
centroid — weighted by the fraction of intervals its cluster covers. The
whole-run estimate then weights each representative's CPI by that
fraction (:mod:`repro.sampling.estimate`).
"""

from __future__ import annotations

from .bbv import _densify, _distance2, bbv, block_leaders, kmeans, normalize
from .intervals import Interval, partition


def pick_representatives(
    vectors: list[dict], k: int
) -> list[tuple[int, float]]:
    """Choose ``<= k`` representative vector indices with cluster weights.

    Returns ``[(vector_index, weight), ...]`` sorted by vector index;
    weights sum to 1. Deterministic: ties in centroid distance break
    towards the earlier interval.
    """
    n = len(vectors)
    if n == 0:
        return []
    assignments, centroids = kmeans(vectors, k)
    _, dense = _densify(vectors)
    picks: list[tuple[int, float]] = []
    for cluster in range(len(centroids)):
        members = [i for i in range(n) if assignments[i] == cluster]
        if not members:
            continue
        representative = min(
            members, key=lambda i: (_distance2(dense[i], centroids[cluster]), i)
        )
        picks.append((representative, len(members) / n))
    picks.sort()
    return picks


def simpoint_intervals(trace, k: int, interval_size: int) -> list[Interval]:
    """Plan SimPoint intervals for ``trace``: partition, cluster, select."""
    bounds = partition(len(trace), interval_size)
    leaders = block_leaders(trace.program)
    vectors = [normalize(bbv(trace, s, e, leaders)) for s, e in bounds]
    picks = pick_representatives(vectors, k)
    return [
        Interval(ordinal, bounds[idx][0], bounds[idx][1], weight=weight)
        for ordinal, (idx, weight) in enumerate(picks)
    ]
