"""Counter-based random numbers for reproducible Monte Carlo.

Every draw is a pure function of (seed, trial index, draw index), so trials
can be evaluated in any order, in parallel, or re-examined individually and
always reproduce bit for bit.  The word function chains the splitmix64
finalizer over the three keys; uniforms use the top 53 bits.

The mixing works in place on an array this module allocates itself, never
on the caller's ``trials``, one cache-sized block at a time, so a call makes
no per-operator temporaries and few passes over main memory.  That changes
only how the words are computed: the (seed, trial, draw) -> word function,
and so every draw layout built on it, is unchanged.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_SCALE = 2.0 ** -53
_BLOCK = 1 << 15  # words mixed per pass; a block and its scratch fit in L2 cache


def _mix(z: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on ``z``; ``shifted`` is scratch of its shape."""
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _as_u64(value) -> np.ndarray:
    arr = np.asarray(value)
    return arr if arr.dtype == np.uint64 else arr.astype(np.uint64)


def words(seed: int, trials, draw: int) -> np.ndarray:
    """64-bit words for the given (seed, trial, draw) keys; trials may be an array."""
    trials_u = np.atleast_1d(_as_u64(trials))
    seed_u = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    draw_u = np.uint64(draw & 0xFFFFFFFFFFFFFFFF)
    key = np.atleast_1d(seed_u ^ _GOLDEN)
    # a new C-ordered array, so the caller's trials stay as they are and flat is a view
    h = np.bitwise_xor(trials_u, _mix(key, np.empty_like(key)), order="C")
    flat = h.reshape(-1)
    shifted = np.empty(min(flat.size, _BLOCK), dtype=np.uint64)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        scratch = shifted[: block.size]
        _mix(block, scratch)
        block ^= draw_u
        _mix(block, scratch)
    return h


def uniforms(seed: int, trials, draw: int) -> np.ndarray:
    """Uniform doubles in [0, 1), one per trial, for the given draw index."""
    w = words(seed, trials, draw)
    w >>= np.uint64(11)
    u = w.astype(np.float64)
    u *= _U53_SCALE
    return u


def derive_seed(seed: int, stream: int) -> int:
    """A decorrelated child seed for an independent stream (sweep rows etc.)."""
    return int(words(seed, stream, 0xD1BE5EED)[0])

