"""MemoryImage answers like a dict of the same words; execute() only reads it."""

import pickle
from array import array

import pytest
from hypothesis import given, settings, strategies as st

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


def test_fill_keeps_an_int64_array_it_is_handed():
    values = array("q", [1, 2, 3])
    image = MemoryImage()
    image.fill(10, values, stride=4)
    image[14] = -2  # the region's second word
    assert values[1] == -2
    assert image == {10: 1, 14: -2, 18: 3}


def test_interleaved_strides_share_no_word():
    """Four fields of 8-word nodes: four stride-8 regions, spans overlapping."""
    image = MemoryImage()
    for field in range(4):
        image.fill(64 + field, range(field, 40, 4), stride=8)
    assert len(image) == 40
    assert image[64 + 8 * 3 + 2] == 3 * 4 + 2
    assert 64 + 4 not in image
    image[68] = 5  # the gap at field 4 of node 0: a sparse word
    with pytest.raises(ValueError, match="overlaps a sparse word"):
        image.fill(68, [0, 0], stride=16)
    with pytest.raises(ValueError, match="overlaps the region"):
        image.fill(64 + 8 * 9 + 1, [0], stride=8)
    image.fill(64 + 5, [7] * 10, stride=8)  # a fifth field fits
    assert image[64 + 5 + 8 * 9] == 7
    with pytest.raises(ValueError, match="stride must be positive"):
        image.fill(0, [1], stride=0)


# Words in a small window so that fills and sparse words meet often; strides
# small enough that interleaved regions are common.
_WORD = st.integers(-40, 160)
_FILL = st.tuples(
    st.just("fill"), _WORD, st.integers(1, 9),
    st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=12),
)
_SET = st.tuples(st.just("set"), _WORD, st.integers(-(1 << 63), (1 << 63) - 1))


@given(
    sparse=st.dictionaries(_WORD, st.integers(-(1 << 63), (1 << 63) - 1), max_size=8),
    steps=st.lists(st.one_of(_FILL, _SET), max_size=24),
)
@settings(max_examples=400, deadline=None)
def test_reads_and_fills_like_a_dict_on_drawn_layouts(sparse, steps):
    image = MemoryImage(sparse)
    model = dict(sparse)
    region_words: set[int] = set()
    for step in steps:
        if step[0] == "set":
            _, word, value = step
            sparse_before = len(image._sparse)
            image[word] = value
            grew = len(image._sparse) - sparse_before
            # Into the owning region, else a sparse word (new or updated).
            assert grew == (word not in region_words and word not in model)
            model[word] = value
        else:
            _, start, stride, values = step
            words = [start + i * stride for i in range(len(values))]
            if any(word in model for word in words):
                with pytest.raises(ValueError, match="overlaps"):
                    image.fill(start, values, stride=stride)
            else:
                image.fill(start, values, stride=stride)
                model.update(zip(words, values))
                region_words.update(words)
        assert image == model

    assert image._sparse.keys() == model.keys() - region_words
    _assert_reads_like(image, model)
    _assert_reads_like(pickle.loads(pickle.dumps(image)), model)


def _assert_reads_like(image, model):
    assert image == model
    assert len(image) == len(model)
    assert sorted(image) == sorted(model)
    assert sorted(image.items()) == sorted(model.items())
    assert len(image.items()) == len(model)
    for word in range(-50, 280):
        assert (word in image) == (word in model)
        assert image.get(word) == model.get(word)
        assert image.get(word, 0) == model.get(word, 0)
        if word in model:
            assert image[word] == model[word]
        else:
            with pytest.raises(KeyError):
                image[word]
