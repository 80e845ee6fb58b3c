"""Seeded random streams for many seeds at once, derived exactly as numpy derives them.

Every random draw of the package comes from a stream
``Generator(PCG64(SeedSequence(entropy)))`` for a tuple of nonnegative ints
``entropy`` (a point seed and a sample index, a seed and a basis index,
...). Building that chain costs tens of microseconds per stream, mostly
SeedSequence's Python-level entropy handling, and the perturbed sweep
needs one stream per (point, sample) pair. This module reproduces the chain
bit for bit for a whole batch of entropy tuples:

* `seed_words` runs SeedSequence's ``mix_entropy`` and ``generate_state``
  loops of numpy's ``bit_generator.pyx`` over all rows at once, each pool
  word an (N,) column of 32-bit words held in uint64 (reduced mod 2**32 by
  shifts). It does so for the tables the package builds, of at most four
  ints below 2**32 a row, which fill SeedSequence's pool with one word
  each; any other table (a seed of 2**32 or more, or more than four
  columns) is seeded row by row by numpy's own SeedSequence;
* `streams` hands each row's words to numpy's own PCG64 seeding, which
  asks its seed sequence for exactly ``generate_state(4, np.uint64)``.

The tests compare both against numpy's own classes.
"""

from __future__ import annotations

import numbers

import numpy as np

_MASK32 = 0xFFFFFFFF
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _low32(value: np.ndarray) -> np.ndarray:
    """uint64 words reduced mod 2**32, by shifts rather than a mask: the
    kernel then runs only the uint64 shift, xor, or, multiply and subtract
    loops, which keeps the numpy code a run pages in small."""
    return (value << 32) >> 32


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple:
    """numpy's ``hashmix`` of (N,) words with the running hash constant
    `const`: the mixed words and the constant advanced by `mult`."""
    advanced = const * mult & _MASK32
    value = _low32((value ^ np.uint64(const)) * np.uint64(advanced))
    return value ^ (value >> _XSHIFT), advanced


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _low32(x * np.uint64(_MIX_MULT_L) - y * np.uint64(_MIX_MULT_R))
    return result ^ (result >> _XSHIFT)


def seed_words(entropy, n_words: int) -> np.ndarray:
    """(N, n_words) uint32: ``SeedSequence(tuple(row)).generate_state(n_words)``
    for every row of `entropy`, an (N, K) array-like of nonnegative ints.

    A table of at most four columns of ints below 2**32 is mixed in one pass
    of array arithmetic; any other is seeded row by row by numpy.
    """
    return _state_words(entropy, n_words).astype(np.uint32)


def _state_words(entropy, n_words: int) -> np.ndarray:
    """`seed_words` as uint64 words."""
    values = np.asarray(entropy)
    native = values.dtype.kind in "iu"
    if not native:
        # Ints beyond 64 bits, ints that numpy would hold as floats, or no ints.
        values = np.array(entropy, dtype=object)
    if values.ndim != 2 or not (native or all(isinstance(v, numbers.Integral) for v in values.flat)):
        raise ValueError(
            f"entropy must be an (N, K) array of nonnegative ints, got {values.dtype} of shape {values.shape}")
    if values.size and values.min() < 0:
        raise ValueError("entropy must be nonnegative")
    if not native or values.shape[1] > _POOL_SIZE or values.size and values.max() > _MASK32:
        words = [np.random.SeedSequence(row).generate_state(n_words) for row in values.tolist()]
        return np.array(words, dtype=np.uint64).reshape(len(values), n_words)
    # Entropy words past a row's width are zero, as mix_entropy hashes them.
    entropy_words = np.zeros((_POOL_SIZE, len(values)), dtype=np.uint64)
    entropy_words[:values.shape[1]] = values.T
    # mix_entropy: hash each entropy word into the pool, then mix every pool
    # word into every other.
    pool, hash_const = [], _INIT_A
    for word in entropy_words:
        mixed, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const, _MULT_A)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    # generate_state: cycle over the pool, hashing each word once more.
    state, hash_const = np.empty((len(values), n_words), dtype=np.uint64), _INIT_B
    for i_dst in range(n_words):
        state[:, i_dst], hash_const = _hashmix(pool[i_dst % _POOL_SIZE], hash_const, _MULT_B)
    return state


def streams(entropy):
    """Generators, one per row of `entropy` in order, each in the state of
    ``Generator(PCG64(SeedSequence(tuple(row))))``.

    The rows' states are derived here, before the first Generator is taken;
    every Generator is a PCG64 of its own, seeded by numpy from its row.
    """
    # Imported here: exact runs never draw, so they never load numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    class RowWords(ISeedSequence):
        """One row's ``generate_state(4, np.uint64)``, the only call PCG64
        makes of its seed sequence. PCG64 reads the row's buffer, so it must
        be C-contiguous."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    # generate_state(4, np.uint64): word pairs (2k, 2k + 1), low half first,
    # are the k-th 64-bit word.
    words = _state_words(entropy, 8)
    seeds = np.ascontiguousarray(words[:, 0::2] | (words[:, 1::2] << 32))
    return (np.random.Generator(np.random.PCG64(RowWords(row))) for row in seeds)
