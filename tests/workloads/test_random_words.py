"""random_words is a bulk replay of CPython's randrange loop.

The per-draw loop stays here as the reference: every named workload's
tables depend on random_words returning the same values *and* leaving the
generator in the same state, because later draws continue the stream.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.kernels import random_words

# Range widths 1..2^32: anywhere, plus powers of two and their neighbours,
# where the shift-and-reject test changes shape.
_WIDTHS = st.one_of(
    st.integers(1, 1 << 32),
    st.integers(0, 32).map(lambda b: 1 << b),
    st.integers(1, 31).map(lambda b: (1 << b) + 1),
)


@given(
    seed=st.integers(0, (1 << 64) - 1),
    width=_WIDTHS,
    lo=st.integers(-(1 << 40), 1 << 40),
    count=st.one_of(st.just(0), st.integers(0, 400)),
)
@settings(max_examples=300, deadline=None)
def test_matches_randrange_loop(seed, width, lo, count):
    bulk, loop = random.Random(seed), random.Random(seed)
    got = random_words(bulk, count, lo, lo + width)
    expected = [loop.randrange(lo, lo + width) for _ in range(count)]
    assert list(got) == expected
    assert bulk.getstate() == loop.getstate()


@given(
    seed=st.integers(0, (1 << 32) - 1),
    bits=st.lists(st.integers(0, 31), min_size=1, max_size=5),
    rows=st.integers(0, 200),
)
@settings(max_examples=100, deadline=None)
def test_power_of_two_draws_interleave(seed, bits, rows):
    """Interleaved randrange(2^m) loops deal out one stream of words < 2^31."""
    bulk, loop = random.Random(seed), random.Random(seed)
    draws = random_words(bulk, rows * len(bits), 0, 1 << 31)
    dealt = [
        [d >> (31 - m) for d in draws[field :: len(bits)]] for field, m in enumerate(bits)
    ]
    rolled = [[loop.randrange(1 << m) for m in bits] for _ in range(rows)]
    assert [list(row) for row in zip(*dealt)] == rolled
    assert bulk.getstate() == loop.getstate()


@pytest.mark.parametrize(
    "lo, hi", [(5, 5), (5, 4), ((1 << 63) - 2, (1 << 63) + 2), (-(1 << 63) - 1, 0)]
)
def test_empty_or_non_int64_range_rejected(lo, hi):
    with pytest.raises(ValueError, match="non-empty int64 range"):
        random_words(random.Random(0), 3, lo, hi)
