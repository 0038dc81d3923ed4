"""numpy's ``SeedSequence`` hash, run over many entropies at once.

``seed_states`` computes ``SeedSequence(entropy).generate_state(4, uint64)``
for a column of entropies with numpy uint32 arithmetic, and
``PrecomputedSeed`` hands one row of it to ``PCG64``, so that numpy's own
code does the seeding.  ``rng.trial_rngs`` imports this module at its first
call: without cached bytecode, compiling it (and loading numpy.random) at
every CLI start-up would slow down the commands that draw nothing.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four 32-bit
# words, hashmix with the running constant INIT_A * MULT_A**k, the output
# hash with INIT_B * MULT_B**k.  The constants do not depend on the data.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_STATE_WORDS = 8  # generate_state(4, uint64) draws eight 32-bit words


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count."""
    out, value = [], init
    for _ in range(count):
        out.append(value)
        value = value * mult & _MASK32
    return np.array(out, dtype=np.uint32)


def _hashmix_calls(entropy_words: int) -> int:
    return _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, entropy_words - _POOL_SIZE)


# enough for entropy of up to 64 words (a seed of about 2,000 bits); longer is computed per call
_HASH_A = _powers(_INIT_A, _MULT_A, _hashmix_calls(64) + 1)
_HASH_B = _powers(_INIT_B, _MULT_B, _STATE_WORDS + 1)[:, None]


def uint32_words(value: int) -> list[int]:
    """numpy's ``_int_to_uint32_array``: little-endian 32-bit words, [0] for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def seed_states(entropy: list, m: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for m entropies at once.

    ``entropy`` lists the 32-bit entropy words in order, each a scalar or a
    uint32 array of length m; returns an (m, 4) uint64 array, one row per
    entropy.  Pool words are rows of uint32 arrays, which wrap mod 2**32 as
    the C code does.  The hashmix calls that do not depend on each other
    (the four fills of the pool, the three updates from one source word,
    the four from one extra entropy word) run as one operation on a block
    of rows, each row with its own running constant.
    """
    calls = _hashmix_calls(len(entropy))
    hash_a = _HASH_A if len(_HASH_A) > calls else _powers(_INIT_A, _MULT_A, calls + 1)
    k = 0

    def hashmix(values, rows):
        nonlocal k
        h = (values ^ hash_a[k:k + rows, None]) * hash_a[k + 1:k + rows + 1, None]
        k += rows
        return h ^ (h >> 16)

    columns = np.zeros((max(len(entropy), _POOL_SIZE), m), dtype=np.uint32)
    for row, word in zip(columns, entropy):
        row[:] = word
    pool = hashmix(columns[:_POOL_SIZE], _POOL_SIZE)
    # mix all bits together so late words affect earlier ones
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], len(dst)))
    for column in columns[_POOL_SIZE:]:
        pool = _mix(pool, hashmix(column, _POOL_SIZE))

    # generate_state: eight 32-bit words cycling through the pool
    words = (np.concatenate([pool, pool]) ^ _HASH_B[:-1]) * _HASH_B[1:]
    words = (words ^ (words >> 16)).astype(np.uint64)
    # each uint64 is the little-endian pair (low word, high word), assembled
    # arithmetically so that the result does not depend on host byte order
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


class PrecomputedSeed(ISeedSequence):
    """Holds one trial's ``generate_state(4, uint64)``, the only output
    ``PCG64`` asks for, computed ahead with its chunk."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("a precomputed trial seed holds generate_state(4, uint64) only")
        return self._state
