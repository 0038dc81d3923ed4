"""Deterministic random-source derivation for parallel Monte Carlo runs.

Every sampler in this package takes an explicit ``numpy.random.Generator``.
Trial ``i`` of a run with master seed ``s`` draws from
``default_rng(SeedSequence((s, i)))`` (``trial_rng``, the definition), so
results are bit-identical no matter how trials are batched across workers.

The Monte Carlo drivers derive the same generators a chunk of trials at a
time (``trial_rngs``): the derivation is unchanged, but SeedSequence's
entropy hash and ``generate_state`` run once over the chunk's trial indexes
as numpy columns instead of once per trial (``_seedseq``), and each
``PCG64`` is then seeded by numpy's own code from its precomputed words.
``tests/test_rng.py`` pins every state and first draw against the installed
numpy's ``SeedSequence``.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

__all__ = ["trial_rng", "trial_rngs"]


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Random source for one trial.

    The stream is seeded from ``SeedSequence((master_seed, trial_index))``,
    which is the documented splitting rule for this package: trial ``i`` of a
    run with a given master seed always sees the same stream, independent of
    parallelism degree or execution order.
    """
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index)))


def trial_rngs(master_seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """``trial_rng(master_seed, i)`` for i in lo..hi-1, in order.

    The entropy of trial i is the master seed's 32-bit words followed by
    i's, one word below 2**32 and two from there on; the hash runs once per
    run of equal word count (so a chunk straddling 2**32 costs two).  The
    generators are built lazily from the precomputed states.  Raises
    ValueError on a negative master seed or trial index, as SeedSequence
    does, and on trial indexes of 2**64 or more.
    """
    master_seed, lo, hi = map(operator.index, (master_seed, lo, hi))
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    hi = max(lo, hi)
    if lo < hi and not (0 <= lo and hi <= 2**64):
        raise ValueError(f"trial indexes must lie in [0, 2**64), got {lo}..{hi - 1}")
    from ._seedseq import PrecomputedSeed, seed_states, uint32_words

    seed_words = uint32_words(master_seed)
    states = []
    for start, stop in ((lo, min(hi, 2**32)), (max(lo, 2**32), hi)):
        if start < stop:
            index = np.arange(start, stop, dtype=np.uint64)
            index_words = [index & np.uint64(0xFFFFFFFF)]
            if start >= 2**32:
                index_words.append(index >> np.uint64(32))
            states.append(seed_states(seed_words + index_words, stop - start))
    return (np.random.Generator(np.random.PCG64(PrecomputedSeed(state)))
            for block in states for state in block)
