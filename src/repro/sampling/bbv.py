"""Basic-block vectors and a pure-python k-means for SimPoint selection.

A basic-block vector (BBV) summarises one trace interval as "how often did
execution enter each static basic block" — the program-phase fingerprint
SimPoint clusters on. Everything here is deterministic: leaders come from
static control flow, vectors from exact dynamic counts, and k-means uses
evenly spaced initial centroids (no RNG), so the same trace and plan always
select the same representative intervals — a requirement for the
content-addressed interval cells of :mod:`repro.sampling.cells`.
"""

from __future__ import annotations

from collections import Counter


def block_leaders(program) -> tuple[int, ...]:
    """Static basic-block leader PCs: entry, branch targets, fall-throughs."""
    leaders = {0}
    for inst in program:
        if inst.is_branch:
            if inst.target is not None:
                leaders.add(inst.target)
            if inst.idx + 1 < len(program):
                leaders.add(inst.idx + 1)
    return tuple(sorted(leaders))


def bbv(trace, start: int, end: int, leaders: tuple[int, ...]) -> dict[int, int]:
    """Block-entry counts for trace positions ``[start, end)``."""
    return dict(Counter(filter(set(leaders).__contains__, trace.pc[start:end])))


def normalize(vector: dict[int, int]) -> dict[int, float]:
    """Scale a count vector to unit L1 norm (interval length independent)."""
    total = sum(vector.values())
    if not total:
        return {}
    return {key: count / total for key, count in vector.items()}


def _densify(vectors: list[dict]) -> tuple[list[int], list[list[float]]]:
    keys = sorted({key for vec in vectors for key in vec})
    dense = [[float(vec.get(key, 0)) for key in keys] for vec in vectors]
    return keys, dense


def _distance2(a: list[float], b: list[float]) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def kmeans(
    vectors: list[dict], k: int, *, max_iter: int = 50
) -> tuple[list[int], list[list[float]]]:
    """Deterministic Lloyd k-means over sparse vectors.

    Returns ``(assignments, centroids)`` with ``assignments[i]`` the
    cluster of ``vectors[i]``. Initial centroids are the vectors at evenly
    spaced indices (deterministic; no RNG to seed or leak). ``k`` is
    clamped to the number of vectors.
    """
    n = len(vectors)
    if n == 0:
        return [], []
    k = max(1, min(k, n))
    _, dense = _densify(vectors)
    centroids = [list(dense[(i * n) // k]) for i in range(k)]
    assignments = [-1] * n
    for _ in range(max_iter):
        changed = False
        for i, vec in enumerate(dense):
            best = min(
                range(k), key=lambda c: (_distance2(vec, centroids[c]), c)
            )
            if best != assignments[i]:
                assignments[i] = best
                changed = True
        if not changed:
            break
        for c in range(k):
            members = [dense[i] for i in range(n) if assignments[i] == c]
            if not members:
                continue  # empty cluster keeps its previous centroid
            dim = len(members[0])
            centroids[c] = [
                sum(m[d] for m in members) / len(members) for d in range(dim)
            ]
    return assignments, centroids
