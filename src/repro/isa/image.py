"""Initial memory images: sparse words plus strided 64-bit regions.

A workload's initial memory is keyed by *word* address (byte address >>
3). Most analogues are dominated by a few large tables -- 2^18-word hash,
coefficient and gather tables -- plus a sprinkle of pointer-linked nodes.
Holding the tables as Python dicts costs one boxed int and one hash-table
slot per word (~70 bytes each) although a trace reads well under 1% of
them. :class:`MemoryImage` stores each table as one ``array('q')`` region
and everything else in a small dict, and presents the union as a
read-only ``Mapping[int, int]``: lookups, iteration, ``len`` and
``items()`` answer exactly as a dict holding the same words would.

A region holds the words ``start, start + stride, start + 2 * stride,
...``: a dense table is stride 1, and one field of a heap of fixed-size
nodes is the node size. Fields of one node heap interleave, so region
spans may overlap; their words never do. Regions are kept sorted by
start, with each entry's running maximum end (``_reach``), so finding the
region that owns a word is a bisect plus a walk back over the regions
whose spans still reach it -- as many as there are interleaved fields.

Builders add words with :meth:`MemoryImage.fill` (a whole region) or
``image[word] = value`` (one word); the emulator only reads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Iterable, Iterator, Mapping
from itertools import accumulate
from math import gcd


class MemoryImage(Mapping[int, int]):
    """Word-addressed initial memory: a sparse dict plus strided regions.

    No two regions share a word and no region holds a sparse word, so
    every word has exactly one home. Region words are signed 64-bit
    values.
    """

    __slots__ = ("_sparse", "_bounds", "_starts", "_regions", "_reach")

    def __init__(self, words: Mapping[int, int] | None = None):
        self._sparse: dict[int, int] = dict(words or {})
        #: ``(lowest, highest)`` sparse word, or ``None`` while there is none.
        self._bounds: tuple[int, int] | None = (
            (min(self._sparse), max(self._sparse)) if self._sparse else None
        )
        #: ``(start_word, stride, values)`` per region, sorted by start;
        #: ``_starts`` holds the starts for bisect, and ``_reach[i]`` is
        #: one past the highest word of regions ``0..i``.
        self._regions: list[tuple[int, int, array]] = []
        self._starts: list[int] = []
        self._reach: list[int] = []

    def fill(self, start_word: int, values: Iterable[int], stride: int = 1) -> None:
        """Add the region ``start_word + i * stride`` holding ``values[i]``.

        The image keeps ``values`` itself when it is an ``array('q')`` and
        copies anything else into one. Raises ``ValueError`` if the region
        shares a word with an existing region or a sparse word; spans may
        interleave. The overlap test costs one bisect plus one exact test
        per region whose span meets the new one, and never looks at the
        sparse words one by one.
        """
        if stride < 1:
            raise ValueError(f"region stride must be positive, not {stride}")
        if not (isinstance(values, array) and values.typecode == "q"):
            values = array("q", values)
        if not values:
            return
        last = start_word + (len(values) - 1) * stride
        at = bisect_right(self._starts, last)
        for i in range(at - 1, -1, -1):
            if self._reach[i] <= start_word:
                break
            start, step, other = self._regions[i]
            if _share_a_word(start_word, stride, last, start, step,
                             start + (len(other) - 1) * step):
                raise ValueError(
                    f"region [{start_word:#x}, {last + 1:#x}) overlaps the region at {start:#x}"
                )
        if self._bounds is not None:
            low, high = self._bounds
            if start_word <= high and low <= last:
                first = start_word + max(0, -((start_word - low) // stride)) * stride
                if not self._sparse.keys().isdisjoint(range(first, min(last, high) + 1, stride)):
                    raise ValueError(
                        f"region [{start_word:#x}, {last + 1:#x}) overlaps a sparse word"
                    )
        at = bisect_left(self._starts, start_word)
        self._starts.insert(at, start_word)
        self._regions.insert(at, (start_word, stride, values))
        self._reach = list(accumulate(
            (start + (len(region) - 1) * step + 1 for start, step, region in self._regions),
            max,
        ))

    def _owner(self, word: int) -> tuple[array, int] | None:
        """The region array holding ``word`` and its index there, if any."""
        i = bisect_right(self._starts, word) - 1
        while i >= 0 and self._reach[i] > word:
            start, stride, values = self._regions[i]
            index, phase = divmod(word - start, stride)
            if not phase and index < len(values):
                return values, index
            i -= 1
        return None

    def __setitem__(self, word: int, value: int) -> None:
        owner = self._owner(word)
        if owner is not None:
            values, index = owner
            values[index] = value
            return
        if word not in self._sparse:
            low, high = self._bounds or (word, word)
            self._bounds = (min(low, word), max(high, word))
        self._sparse[word] = value

    def get(self, word, default=None):
        value = self._sparse.get(word)
        if value is not None:
            return value
        owner = self._owner(word)
        if owner is None:
            return default
        values, index = owner
        return values[index]

    def __getitem__(self, word: int) -> int:
        value = self.get(word)
        if value is None:
            raise KeyError(word)
        return value

    def __iter__(self) -> Iterator[int]:
        yield from self._sparse
        for start, stride, values in self._regions:
            yield from range(start, start + len(values) * stride, stride)

    def __len__(self) -> int:
        return len(self._sparse) + sum(len(values) for _, _, values in self._regions)

    def items(self) -> ItemsView:
        return _ImageItems(self)


def _share_a_word(a: int, p: int, a_last: int, b: int, q: int, b_last: int) -> bool:
    """Whether ``a, a + p, ..., a_last`` and ``b, b + q, ..., b_last`` meet.

    The common words of two arithmetic progressions are one progression
    of step ``lcm(p, q)`` (none if ``b - a`` is not a multiple of
    ``gcd(p, q)``): take its first word at or above both starts and test
    it against both ends.
    """
    low, high = max(a, b), min(a_last, b_last)
    if low > high:
        return False
    g = gcd(p, q)
    if (b - a) % g:
        return False
    # a + p * t is also b + q * u when p * t = b - a (mod q).
    m = q // g
    common = a + p * ((b - a) // g * pow(p // g, -1, m) % m)
    return low + (common - low) % (p * m) <= high


class _ImageItems(ItemsView):
    """``items()`` view that walks the dict and the regions directly."""

    def __iter__(self):
        image = self._mapping
        yield from image._sparse.items()
        for start, stride, values in image._regions:
            yield from zip(range(start, start + len(values) * stride, stride), values)
