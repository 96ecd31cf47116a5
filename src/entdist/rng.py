"""Counter-based random numbers for reproducible Monte Carlo.

Every draw is a pure function of (seed, trial index, draw index), so trials
can be evaluated in any order, in parallel, or re-examined individually and
always reproduce bit for bit.  The word function chains the splitmix64
finalizer over the three keys; uniforms use the top 53 bits,
u = (w >> 11) * 2**-53, with no rounding.  So u >= c holds exactly when
(w >> 11) >= ceil(c * 2**53), and u >= 0.5 exactly when w >= 2**63: the
protocol samplers compare on the words and never decode them.  uniforms
stays the definition of the stream, so the draw layout and every seeded
output are the same either way.

The mixing works in place on an array this module allocates itself, never
on the caller's ``trials``, one cache-sized block at a time, so a call makes
no per-operator temporaries and few passes over main memory.  That changes
only how the words are computed: the (seed, trial, draw) -> word function,
and so every draw layout built on it, is unchanged.  The seed's own mix is
one Python-int computation per call, not a numpy pass, and derive_seed
computes its one word wholly in Python ints.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15  # keys the seed, in Python ints
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
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


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on one Python int in [0, 2**64), bit for bit as _mix."""
    z ^= z >> 30
    z = z * int(_MIX1) & _MASK64
    z ^= z >> 27
    z = z * int(_MIX2) & _MASK64
    return z ^ (z >> 31)


def _as_u64(value) -> np.ndarray:
    arr = np.asarray(value)
    return arr if arr.dtype == np.uint64 else arr.astype(np.uint64)


def _check_key(name: str, value: int) -> None:
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def words(seed: int, trials, draw: int) -> np.ndarray:
    """64-bit words for the given (seed, trial, draw) keys; trials may be an array."""
    _check_key("seed", seed)
    trials_u = np.atleast_1d(_as_u64(trials))
    draw_u = np.uint64(draw & _MASK64)
    key = np.uint64(_mix_int(int(seed) ^ _GOLDEN))
    # a new C-ordered array, so the caller's trials stay as they are and flat is a view
    h = np.bitwise_xor(trials_u, key, order="C")
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
    """A decorrelated child seed for an independent stream (sweep rows etc.):
    ``words(seed, stream, 0xD1BE5EED)``, computed in Python ints."""
    _check_key("seed", seed)
    _check_key("stream", stream)
    key = _mix_int(int(seed) ^ _GOLDEN)
    return _mix_int(_mix_int(int(stream) ^ key) ^ 0xD1BE5EED)

