"""Seeded random streams for many seeds at once, derived exactly as numpy derives them.

Every random draw of the package comes from a stream
``Generator(PCG64(SeedSequence(entropy)))`` for a tuple of nonnegative ints
``entropy`` (a point seed and a sample index, a seed and a basis index,
...). Building that chain costs tens of microseconds per stream, mostly
SeedSequence's Python-level entropy handling, and the perturbed sweep
needs one stream per (point, sample) pair. This module reproduces the chain
bit for bit for a whole batch of entropy tuples:

* `seed_words` runs SeedSequence's pool mixing and ``generate_state`` over
  all rows at once, as array arithmetic on 32-bit words held in uint64
  (reduced mod 2**32 by shifts), with the hash constants of numpy's
  ``bit_generator.pyx``. It does so for the tables the package builds, of
  at most four ints below 2**32 a row, which fill SeedSequence's pool
  with one word each; any other table (a seed of 2**32 or more, or more
  than four columns) is seeded row by row by numpy's own SeedSequence;
* `streams` turns each row's words into the state that PCG64's seeding
  (``pcg_setseq_128_srandom_r``) reaches and loads it into one reused
  PCG64, so each further stream costs one state assignment.

The tests compare both against numpy's own classes.
"""

from __future__ import annotations

import numbers

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _low32(value: np.ndarray) -> np.ndarray:
    """uint64 words reduced mod 2**32, by shifts rather than a mask: the
    kernel then runs only the uint64 shift, xor, or, multiply and subtract
    loops, which keeps the numpy code a run pages in small."""
    return (value << 32) >> 32


def _hash_constants(init: int, mult: int, n: int) -> tuple:
    """Xor and multiply constants of n consecutive ``hashmix`` calls, as two
    (n, 1) uint64 arrays: each call xors with the running hash constant,
    advances it by `mult` and multiplies by the advanced constant."""
    xor, mul, const = [], [], init
    for _ in range(n):
        xor.append(const)
        const = const * mult & _MASK32
        mul.append(const)
    return np.array(xor, dtype=np.uint64)[:, None], np.array(mul, dtype=np.uint64)[:, None]


def _pool_constants() -> tuple:
    """``mix_entropy``'s hashmix constants for a pool of at most four words:
    (4, 1) arrays for the initial hashing and (4, 4, 1) for the mixing pass
    indexed [source, destination] (the unused diagonal holds zeros)."""
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    off_diagonal = ~np.eye(_POOL_SIZE, dtype=bool)
    tables = []
    for flat in (xor, mul):
        mixing = np.zeros((_POOL_SIZE, _POOL_SIZE, 1), dtype=np.uint64)
        mixing[off_diagonal] = flat[_POOL_SIZE:]
        tables += [flat[:_POOL_SIZE], mixing]
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


_INIT_XOR, _MIX_XOR, _INIT_MUL, _MIX_MUL = _pool_constants()


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` of (n,) or (m, n) words, with one (m, 1) constant
    pair per row of the result."""
    value = _low32((value ^ xor) * mul)
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _low32(x * np.uint64(_MIX_MULT_L) - y * np.uint64(_MIX_MULT_R))
    return result ^ (result >> _XSHIFT)


def _pool(words: np.ndarray) -> np.ndarray:
    """(4, n) SeedSequence pool words (``mix_entropy``) for (4, n) uint64
    entropy words, a row's unused words zero. The hashmix calls that one
    source word makes for the other pool words are independent, so each
    source word is mixed into the whole pool in one batch, its own row kept
    as it was."""
    pool = _hashmix(words, _INIT_XOR, _INIT_MUL)
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[src], _MIX_XOR[src], _MIX_MUL[src]))
        mixed[src] = pool[src]
        pool = mixed
    return pool


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
    words = np.zeros((_POOL_SIZE, len(values)), dtype=np.uint64)
    words[:values.shape[1]] = values.T
    xor, mul = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hashmix(_pool(words)[np.arange(n_words) % _POOL_SIZE], xor, mul).T


def streams(entropy):
    """Generators, one per row of `entropy` in order, each in the state of
    ``Generator(PCG64(SeedSequence(tuple(row))))``.

    The rows' states are derived here, before the first Generator is taken.
    One PCG64 and one Generator serve every row: each step loads the next
    row's state, so a yielded Generator is valid only until the next step.
    """
    words = _state_words(entropy, 8)
    # PCG64 seeds from generate_state(4, uint64): word pairs (2k, 2k + 1),
    # low half first, are the k-th 64-bit word; words 0-1 are the initial
    # state (high, low) and words 2-3 the stream selector.
    seeds = words[:, 0::2] | (words[:, 1::2] << 32)
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    # A fresh generator's state: has_uint32 = 0, so loading it also drops a
    # half-used 64-bit word left by the previous stream.
    state = bitgen.state

    def load():
        for seed in seeds:
            init_hi, init_lo, seq_hi, seq_lo = seed.tolist()
            # srandom: state 0, inc = (initseq << 1) | 1, step, add initstate, step.
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            start = (((init_hi << 64) | init_lo) + inc) * _PCG_MULT + inc
            state["state"] = {"state": start & _MASK128, "inc": inc}
            bitgen.state = state
            yield generator

    return load()
