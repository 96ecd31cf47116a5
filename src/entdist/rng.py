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

The word is mix(mix(trial ^ key(seed)) ^ draw), and its inner mix does not
depend on the draw (the counter-based design of Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  A caller that draws several
times for trials 0..n-1 makes one TrialKeys, which holds that inner mix, and
passes it to words in place of the trials: each words call then makes only
the xor with the draw and the outer mix.  Either way the mixing works on an
array this module allocates itself, never on the caller's ``trials`` or
keys, one cache-sized block at a time, so a call makes no per-operator
temporaries and few passes over main memory.  That changes only how the
words are computed: the (seed, trial, draw) -> word function, and so every
draw layout built on it, is unchanged.  The seed's own mix is one Python-int
computation, not a numpy pass, and derive_seed computes its one word wholly
in Python ints.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15  # keys the seed, in Python ints
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_U53_SCALE = 2.0 ** -53
_BLOCK = 1 << 15  # words mixed or reduced per pass; a block and its scratch fit in L2 cache


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


def _blocks(size: int):
    """Consecutive _BLOCK-sized slices covering range(size)."""
    return (slice(start, start + _BLOCK) for start in range(0, size, _BLOCK))


def _mix_blocks(out: np.ndarray, src: np.ndarray, xor) -> np.ndarray:
    """out = _mix(src ^ xor) for 1-D uint64 arrays, one block at a time; out may be src."""
    shifted = np.empty(min(out.size, _BLOCK), dtype=np.uint64)
    for part in _blocks(out.size):
        block = np.bitwise_xor(src[part], xor, out=out[part])
        _mix(block, shifted[: block.size])
    return out


def _seed_key(seed: int) -> int:
    return _mix_int(int(seed) ^ _GOLDEN)


def _as_u64(value) -> np.ndarray:
    arr = np.asarray(value)
    return arr if arr.dtype == np.uint64 else arr.astype(np.uint64)


def _check_key(name: str, value: int) -> None:
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")


class TrialKeys:
    """The draw-independent inner mix, mix(trial ^ key(seed)), of trials 0..n-1.

    words(seed, keys, draw) takes it in place of np.arange(n) and gives the
    same words.  The mix is made in place on the arange, so the object costs
    that array and no more; the array is read-only, so no words call can
    change it.
    """

    __slots__ = ("seed", "mixed")

    def __init__(self, seed: int, n: int):
        _check_key("seed", seed)
        mixed = np.arange(n, dtype=np.uint64)
        _mix_blocks(mixed, mixed, np.uint64(_seed_key(seed)))
        mixed.flags.writeable = False
        self.seed = seed
        self.mixed = mixed


def words(seed: int, trials, draw: int) -> np.ndarray:
    """64-bit words for the given (seed, trial, draw) keys.  trials may be an
    array, or the TrialKeys of this seed for trials 0..n-1."""
    _check_key("seed", seed)
    if isinstance(trials, TrialKeys):
        if trials.seed != seed:
            raise ValueError(f"TrialKeys made for seed {trials.seed}, not for seed {seed}")
        src = trials.mixed
        h = np.empty_like(src)
    else:
        trials_u = np.atleast_1d(_as_u64(trials))
        # a new C-ordered array, so the caller's trials stay as they are and reshape is a view
        h = np.empty(trials_u.shape, dtype=np.uint64)
        src = _mix_blocks(h.reshape(-1), trials_u.ravel(), np.uint64(_seed_key(seed)))
    _mix_blocks(h.reshape(-1), src, np.uint64(draw & _MASK64))
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
    return _mix_int(_mix_int(int(stream) ^ _seed_key(seed)) ^ 0xD1BE5EED)

