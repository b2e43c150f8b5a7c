"""MemoryImage answers like a dict of the same words; execute() only reads it."""

import pickle

import pytest

from repro.isa import Asm, MemoryImage, execute


def _image():
    image = MemoryImage({5: 50, 6: 60})
    image.fill(100, [1, 2, 3])
    image.fill(200, range(10, 14))
    return image


_SAME_WORDS = {5: 50, 6: 60, 100: 1, 101: 2, 102: 3, 200: 10, 201: 11, 202: 12, 203: 13}


def test_reads_like_a_dict_of_the_same_words():
    image = _image()
    assert len(image) == len(_SAME_WORDS)
    assert sorted(image) == sorted(_SAME_WORDS)
    assert dict(image.items()) == _SAME_WORDS
    assert len(image.items()) == len(_SAME_WORDS)
    assert image == _SAME_WORDS
    for word, value in _SAME_WORDS.items():
        assert image[word] == value
        assert image.get(word) == value
        assert word in image
    for word in (0, 4, 7, 99, 103, 199, 204):
        assert word not in image
        assert image.get(word) is None
        assert image.get(word, 0) == 0
        with pytest.raises(KeyError):
            image[word]


def test_setitem_writes_into_the_owning_region():
    image = _image()
    image[101] = -7  # inside a region: updated in place
    image[150] = 9  # outside every region: a new sparse word
    assert image[101] == -7
    assert image[150] == 9
    assert len(image) == len(_SAME_WORDS) + 1
    with pytest.raises(ValueError, match="overlaps a sparse word"):
        image.fill(149, [0, 0])


@pytest.mark.parametrize("start, length", [(98, 3), (102, 1), (199, 10), (95, 30)])
def test_fill_rejects_overlapping_regions(start, length):
    image = _image()
    with pytest.raises(ValueError, match="overlaps the region"):
        image.fill(start, [0] * length)
    assert image == _SAME_WORDS


def test_fill_rejects_sparse_overlap_and_allows_adjacent():
    image = _image()
    with pytest.raises(ValueError, match="overlaps a sparse word"):
        image.fill(3, [0, 0, 0])
    image.fill(103, [4])  # directly after a region
    image.fill(101, [])  # an empty fill adds nothing, even inside a region
    assert image[103] == 4
    assert len(image) == len(_SAME_WORDS) + 1


def test_pickle_round_trip():
    image = _image()
    assert pickle.loads(pickle.dumps(image)) == _SAME_WORDS


def test_execute_reads_image_and_overlays_stores():
    """Same trace for an image and an equal dict; neither is mutated."""
    a = Asm()
    a.movi("r1", 100 * 8)
    a.load("r2", "r1", 8)  # image word 101
    a.addi("r2", "r2", 40)
    a.store("r1", "r2", 8)  # overwrite word 101 (overlay only)
    a.load("r3", "r1", 8)  # reads the store
    a.load("r4", "r1", 800)  # image word 200
    a.load("r5", "r1", 4000)  # absent word reads 0
    a.halt()
    program = a.build()
    image = _image()
    traced = execute(program, memory=image)
    reference = execute(program, memory=dict(_SAME_WORDS))
    assert traced.final_regs == reference.final_regs
    assert traced.final_regs[2:6] == [42, 42, 10, 0]
    assert [(d.addr, d.mem_src) for d in traced] == [(d.addr, d.mem_src) for d in reference]
    assert traced[4].mem_src == 3
    assert image == _SAME_WORDS
