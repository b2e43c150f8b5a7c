"""Result files round-trip: what the cache and a run dir write, they read
back as the same value (ROADMAP item 6)."""

from __future__ import annotations

import tempfile

from hypothesis import given, settings, strategies as st

from repro.orchestrate.rundir import load_cells, store_cell
from repro.parallel import CACHE_SCHEMA_VERSION, ResultCache

KEY = "ab" * 32

#: JSON-shaped values: the types a cell payload is made of.
VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)
#: Top-level payloads; ``put`` owns the ``schema`` and ``key`` fields.
PAYLOADS = st.dictionaries(
    st.text().filter(lambda name: name not in ("schema", "key")),
    VALUES, max_size=5,
)


def same(a, b) -> bool:
    """Equal and of the same JSON types (``1 == 1.0 == True`` in Python)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@given(payload=PAYLOADS)
@settings(max_examples=50, deadline=None)
def test_cache_put_then_get_returns_the_payload(payload):
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put(KEY, payload)
        got = cache.get(KEY)
    assert same(got, {**payload, "schema": CACHE_SCHEMA_VERSION, "key": KEY})


@given(payload=PAYLOADS)
@settings(max_examples=50, deadline=None)
def test_store_cell_then_load_cells_returns_the_payload(payload):
    with tempfile.TemporaryDirectory() as run_dir:
        store_cell(run_dir, KEY, payload)
        loaded = load_cells(run_dir)
    assert same(loaded, {KEY: payload})
