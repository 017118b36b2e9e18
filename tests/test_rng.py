"""The feature-subset reader against ``Generator.choice``, draw for draw."""

from types import SimpleNamespace

import numpy as np
import pytest

from rarepred.rng import generator, subsets

# (k, m): small, whole and near-whole subsets, the benchmark's (12, 3), wide Floyd
# draws, and past numpy's cutoff (k > 10000 and m > k // 50) its tail shuffle
CASES = [
    (1, 1), (2, 1), (3, 2), (12, 1), (12, 3), (12, 11), (12, 12), (100, 10),
    (5000, 70), (20000, 399), (10001, 300), (20000, 500),
]


def choice(rng, k, m):
    return np.sort(rng.choice(k, size=m, replace=False)).tolist()


def twins(seed, prefix):
    """Two generators of one seed, each past ``prefix`` 32-bit draws: an odd count
    leaves half of a 64-bit word pending."""
    pair = generator(seed), generator(seed)
    for rng in pair:
        rng.integers(0, 1000, size=prefix)
    return pair


@pytest.mark.parametrize("prefix", [0, 1, 2, 5])
@pytest.mark.parametrize("block", [512, 7])
def test_blocks_give_choices_subsets(prefix, block):
    """Blocks of other uint32 reads come between subsets, an odd one leaving half
    a word pending: the reader keeps no words of its own."""
    for seed in range(100):
        numpy_rng, ours = twins(seed, prefix)
        draw = subsets(ours)
        for k, m in CASES:
            assert draw(k, m) == choice(numpy_rng, k, m), (seed, k, m)
            words = [rng.integers(0, 2 ** 32, size=block, dtype=np.uint32).tolist()
                     for rng in (numpy_rng, ours)]
            assert words[0] == words[1], (seed, k, m)


@pytest.mark.parametrize("prefix", [0, 1, 2, 5])
def test_one_word_reads_keep_the_stream_in_step(prefix):
    """Other draws come between subsets, as extratrees' cutpoints do, and each
    subset leaves the generator where ``Generator.choice`` does."""
    for seed in range(100):
        numpy_rng, ours = twins(seed, prefix)
        draw = subsets(ours)
        for k, m in CASES:
            assert draw(k, m) == choice(numpy_rng, k, m), (seed, k, m)
            assert ours.bit_generator.state == numpy_rng.bit_generator.state
            assert ours.random() == numpy_rng.random()


@pytest.mark.parametrize("draws", [1, 512])
@pytest.mark.parametrize("word", [0, 4, 2 ** 30, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1])
@pytest.mark.parametrize("k,m", [(12, 1), (12, 3), (12, 12), (3, 1), (3, 3)])
def test_pending_word_set_by_hand(draws, word, k, m):
    """In [0, 11] Lemire's method rejects a word w when 12 * w % 2 ** 32 < 4, as 0,
    2 ** 30 and 2 ** 31 are; in [0, 2] it rejects 0. (12, 12) and (3, 3) draw in
    [0, 0] first, which takes no word. The reader is made before the pending word is
    set, and ``draws`` subsets follow it in step."""
    for seed in range(20):
        numpy_rng, ours = generator(seed), generator(seed)
        draw = subsets(ours)
        for rng in (numpy_rng, ours):
            rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": word}
        for _ in range(draws):
            assert draw(k, m) == choice(numpy_rng, k, m), seed
        assert ours.bit_generator.state == numpy_rng.bit_generator.state


class HandMade:
    """A generator stand-in that serves the given uint32 words through the bit
    generator's ``next_uint32``, as numpy's ctypes interface has it."""

    def __init__(self, words):
        self.words, state = list(words), object()

        def next_uint32(arg):
            assert arg is state
            return self.words.pop(0)

        bits = SimpleNamespace(next_uint32=next_uint32, state=state)
        self.bit_generator = SimpleNamespace(ctypes=bits)


@pytest.mark.parametrize("tail", [1, 512])
def test_hand_made_stream(tail):
    """In [0, 11] the word 0 is rejected and 2 ** 31 + 1 gives 6. In (12, 2) Floyd
    draws 5 in [0, 10] and 6 in [0, 11], then the shuffle one word in [0, 1]. The
    ``tail`` words after them stay unread."""
    stream = HandMade([0, 2 ** 31 + 1] + [9] * tail)
    assert subsets(stream)(12, 1) == [6]
    assert stream.words == [9] * tail
    stream = HandMade([2 ** 31, 2 ** 31 + 1, 5] + [9] * tail)
    assert subsets(stream)(12, 2) == [5, 6]
    assert stream.words == [9] * tail
