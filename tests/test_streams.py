"""Batched stream seeding against numpy's own SeedSequence and PCG64."""

import numpy as np
import pytest

from uqcm.streams import seed_words, streams

BASE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3)


def _numpy_words(rows, n_words):
    return np.array([np.random.SeedSequence(row).generate_state(n_words) for row in rows], dtype=np.uint32)


def _numpy_state(row):
    return np.random.PCG64(np.random.SeedSequence(row)).state


# Each base seed splits into 1 (0, 1, 2**32 - 1), 2 (2**32), 3 (2**64 + 5)
# or 4 (2**100 + 3) words, so the rows below are 2 to 6 words wide and the
# widths above the pool size take SeedSequence's extra mixing pass.
PAIR_ROWS = [(base, i) for base in BASE_SEEDS for i in (0, 1, 24, 2**32 - 1)]
TRIPLE_ROWS = [(base, i, j) for base in BASE_SEEDS for i in (0, 3) for j in (0, 18)]


@pytest.mark.parametrize("rows", [PAIR_ROWS, TRIPLE_ROWS], ids=["pairs", "triples"])
@pytest.mark.parametrize("n_words", [1, 4, 8, 9])
def test_seed_words_match_seed_sequence(rows, n_words):
    words = seed_words(rows, n_words)
    assert words.dtype == np.uint32 and words.shape == (len(rows), n_words)
    np.testing.assert_array_equal(words, _numpy_words(rows, n_words))


def test_rows_of_one_width_match_seed_sequence():
    # One batch per row width, including 4-word rows (the pool size, no
    # extra pass) and 5- and 6-word rows (one and two extra passes).
    for rows in ([(7, 8, 9, 10)], [(7, 8, 9, 10, 11)], [(2**64 + 5, 2, 3)], [(2**100 + 3, 2**32)] * 3):
        np.testing.assert_array_equal(seed_words(rows, 4), _numpy_words(rows, 4))


@pytest.mark.parametrize("rows", [PAIR_ROWS, TRIPLE_ROWS], ids=["pairs", "triples"])
def test_stream_states_match_pcg64(rows):
    for row, generator in zip(rows, streams(rows)):
        assert generator.bit_generator.state == _numpy_state(row)


def test_streams_draw_like_fresh_generators():
    rows = [(2**64 + 5, i) for i in range(5)] + [(3, 1)]
    for row, generator in zip(rows, streams(rows)):
        reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(row)))
        np.testing.assert_array_equal(generator.random(7), reference.random(7))
        assert generator.integers(0, 2**32, dtype=np.uint32) == reference.integers(0, 2**32, dtype=np.uint32)
        assert generator.multinomial(100, [0.2, 0.3, 0.5]).tolist() == reference.multinomial(100, [0.2, 0.3, 0.5]).tolist()


def test_streams_restart_a_half_used_word():
    # A 32-bit draw leaves half a 64-bit word buffered; the next stream must
    # not start from it.
    rows = [(5, 0), (5, 1)]
    iterator = streams(rows)
    next(iterator).integers(0, 2**32, dtype=np.uint32)
    assert next(iterator).bit_generator.state == _numpy_state(rows[1])


def test_uniform_is_an_affine_map_of_random():
    # The perturbed sweep scales raw random() draws in place instead of
    # calling uniform(low, high); numpy's uniform is low + (high - low) * u.
    for low, high in ((-0.001, 0.001), (-1.0, 1.0), (-0.0, 0.0)):
        (generator,) = streams([(42, 1)])
        raw = generator.random(50)
        (generator,) = streams([(42, 1)])
        np.testing.assert_array_equal(low + (high - low) * raw, generator.uniform(low, high, 50))


def test_empty_batch():
    assert seed_words(np.empty((0, 2), dtype=np.uint32), 3).shape == (0, 3)
    assert list(streams(np.empty((0, 2), dtype=np.int64))) == []


def test_entropy_must_be_a_table_of_nonnegative_ints():
    with pytest.raises(ValueError, match="nonnegative"):
        seed_words([(1, -2)], 1)
    with pytest.raises(ValueError, match=r"\(N, K\)"):
        seed_words([1, 2], 1)
