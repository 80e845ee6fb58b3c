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
# or 4 (2**100 + 3) words, so the rows below are 2 to 6 words wide: the
# one-word rows are mixed in batch, the others seeded by numpy.
PAIR_ROWS = [(base, i) for base in BASE_SEEDS for i in (0, 1, 24, 2**32 - 1)]
TRIPLE_ROWS = [(base, i, j) for base in BASE_SEEDS for i in (0, 3) for j in (0, 18)]


@pytest.mark.parametrize("rows", [PAIR_ROWS, TRIPLE_ROWS], ids=["pairs", "triples"])
@pytest.mark.parametrize("n_words", [1, 4, 8, 9])
def test_seed_words_match_seed_sequence(rows, n_words):
    words = seed_words(rows, n_words)
    assert words.dtype == np.uint32 and words.shape == (len(rows), n_words)
    np.testing.assert_array_equal(words, _numpy_words(rows, n_words))


def test_rows_of_one_width_match_seed_sequence():
    # 4-word rows (the pool size) are mixed in batch; 5- and 6-word rows,
    # which take SeedSequence's extra mixing pass, are seeded by numpy.
    # Zero- and one-word rows leave pool words that are hashed as zeros.
    for rows in ([(7, 8, 9, 10)], [(7, 8, 9, 10, 11)], [(2**64 + 5, 2, 3)], [(2**100 + 3, 2**32)] * 3,
                 np.empty((2, 0), np.int64), [(7,)], [(0,), (2**32 - 1,)]):
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


def test_streams_are_independent():
    # Taking a later Generator leaves an earlier one where it was.
    first, _ = streams([(5, 0), (5, 1)])
    reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 0))))
    np.testing.assert_array_equal(first.random(7), reference.random(7))


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
    # Checked alike for a table that would be mixed in batch and for tables
    # that would go to numpy's SeedSequence.
    for rows in ([(1, -2)], [(2**40, -1)], [(2**70, -1)]):
        with pytest.raises(ValueError, match="nonnegative"):
            seed_words(rows, 1)
    with pytest.raises(ValueError, match=r"\(N, K\)"):
        seed_words([1, 2], 1)
    for rows in ([(1.5, 0)], [(3, 0.5)], [(2**40, 1.5)], [(2**70, 1.5)], [(1, 2, 3, 4, 5.5)], [("7", 0)]):
        with pytest.raises(ValueError, match=r"\(N, K\) array of nonnegative ints"):
            seed_words(rows, 1)
        with pytest.raises(ValueError, match=r"\(N, K\) array of nonnegative ints"):
            streams(rows)


def test_package_tables_are_mixed_in_batch(monkeypatch):
    # The tables the package builds, of at most four ints below 2**32 a row,
    # never reach numpy's SeedSequence; a wider int does.
    tables = [
        [(seed, b) for seed in (0, 7, 2**32 - 1) for b in range(4)],       # (seed, basis)
        [(seed, 0x626F6F74) for seed in (0, 7, 2**32 - 1)],                # (seed, salt)
        np.column_stack((np.repeat([3, 2**31], 25), np.tile(np.arange(25), 2))),   # (seed, sample)
        [(2**32 - 1, d, t) for d in range(4) for t in range(19)],           # (seed, i_delta, i_theta)
    ]
    expect = [(_numpy_words(rows, 1), [_numpy_state(row) for row in np.asarray(rows).tolist()]) for rows in tables]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy's SeedSequence called")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    for rows, (words, states) in zip(tables, expect):
        np.testing.assert_array_equal(seed_words(rows, 1), words)
        assert [generator.bit_generator.state for generator in streams(rows)] == states
    with pytest.raises(AssertionError, match="SeedSequence called"):
        seed_words([(2**32, 0)], 1)
    with pytest.raises(AssertionError, match="SeedSequence called"):
        seed_words([(1, 2, 3, 4, 5)], 1)
