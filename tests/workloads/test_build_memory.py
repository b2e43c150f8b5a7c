"""Building an input allocates about what its image holds.

memcached's image is a 2 MiB bucket table plus a 32k-node heap whose
four fields are stride-24 regions: 3 MiB of int64 words. Held as a dict,
the 131k node words alone took about 8 MiB, and the build peaked at
25 MiB of traced allocations.
"""

import tracemalloc

from repro.workloads import REGISTRY


def test_memcached_build_peak_stays_near_its_image():
    REGISTRY.build("memcached", variant="train", scale=0.1)  # imports, numpy
    tracemalloc.start()
    try:
        workload = REGISTRY.build("memcached", variant="ref", scale=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert not workload.memory._sparse
