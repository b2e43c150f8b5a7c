"""Initial memory images: sparse words plus dense 64-bit regions.

A workload's initial memory is keyed by *word* address (byte address >>
3). Most analogues are dominated by a few large tables -- 2^18-word hash,
coefficient and gather tables -- plus a sprinkle of pointer-linked nodes.
Holding the tables as Python dicts costs one boxed int and one hash-table
slot per word (~70 bytes each) although a trace reads well under 1% of
them. :class:`MemoryImage` stores each table as one contiguous
``array('q')`` region and everything else in a small dict, and presents
the union as a read-only ``Mapping[int, int]``: lookups, iteration,
``len`` and ``items()`` answer exactly as a dict holding the same words
would. Builders add words with :meth:`MemoryImage.fill` (a whole region)
or ``image[word] = value`` (one word); the emulator only reads.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Iterable, Iterator, Mapping


class MemoryImage(Mapping[int, int]):
    """Word-addressed initial memory: a sparse dict plus dense regions.

    Regions never overlap each other or a sparse word, so every word has
    exactly one home. Region words are signed 64-bit values.
    """

    __slots__ = ("_sparse", "_regions")

    def __init__(self, words: Mapping[int, int] | None = None):
        self._sparse: dict[int, int] = dict(words or {})
        #: ``(start_word, values)`` per region, in fill order.
        self._regions: list[tuple[int, array]] = []

    def fill(self, start_word: int, values: Iterable[int]) -> None:
        """Add the dense region ``start_word, start_word + 1, ...``.

        Raises ``ValueError`` if the region overlaps an existing region or
        sparse word.
        """
        region = array("q", values)
        if not region:
            return
        end = start_word + len(region)
        for start, other in self._regions:
            if start < end and start_word < start + len(other):
                raise ValueError(
                    f"region [{start_word:#x}, {end:#x}) overlaps the region at {start:#x}"
                )
        if any(start_word <= word < end for word in self._sparse):
            raise ValueError(f"region [{start_word:#x}, {end:#x}) overlaps a sparse word")
        self._regions.append((start_word, region))

    def __setitem__(self, word: int, value: int) -> None:
        for start, region in self._regions:
            offset = word - start
            if 0 <= offset < len(region):
                region[offset] = value
                return
        self._sparse[word] = value

    def get(self, word, default=None):
        value = self._sparse.get(word)
        if value is not None:
            return value
        for start, region in self._regions:
            offset = word - start
            if 0 <= offset < len(region):
                return region[offset]
        return default

    def __getitem__(self, word: int) -> int:
        value = self.get(word)
        if value is None:
            raise KeyError(word)
        return value

    def __iter__(self) -> Iterator[int]:
        yield from self._sparse
        for start, region in self._regions:
            yield from range(start, start + len(region))

    def __len__(self) -> int:
        return len(self._sparse) + sum(len(region) for _, region in self._regions)

    def items(self) -> ItemsView:
        return _ImageItems(self)


class _ImageItems(ItemsView):
    """``items()`` view that walks the dict and the regions directly."""

    def __iter__(self):
        image = self._mapping
        yield from image._sparse.items()
        for start, region in image._regions:
            yield from zip(range(start, start + len(region)), region)
