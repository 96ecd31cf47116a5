"""Counter-based random numbers for reproducible Monte Carlo.

Every draw is a pure function of (seed, trial index, draw index), so trials
can be evaluated in any order, in parallel, or re-examined individually and
always reproduce bit for bit.  The word is mix(mix(trial ^ key(seed)) ^
draw), with mix the splitmix64 finalizer; its inner mix does not depend on
the draw (the counter-based design of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so TrialKeys holds it for any trials
and words adds only the draw and the outer mix.

mix(0) = 0 gives every seed s one fixed-point trial: t = key(s) = mix(s ^
0x9E3779B97F4A7C15) has inner mix 0, so its words are mix(draw) whatever the
seed, and its draw-0 word is 0 (u = 0.0).  The seed 0x9E3779B97F4A7C15 makes
trial 0 that trial.  Every seeded output is pinned, so the stream keeps it.

The word format is stated here alone: a uniform is the word's top 53 bits,
u = (w >> 11) * 2**-53, with no rounding.  sample compares on the words and
never decodes them, which is exact: u >= c holds exactly when (w >> 11) >=
ceil(c * 2**53), and c * 2**53 is exact for every c in [0, 1 + 1e-15].
Mixing and sampling go one cache-sized block at a time, never into the
caller's trials or keys; derive_seed works wholly in Python ints.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15  # keys the seed, in Python ints
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_U53_SCALE = 2.0 ** -53
_BLOCK = 1 << 15  # words mixed or reduced per pass; a block and its scratch fit in L2 cache
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = map(np.uint64, (11, 27, 30, 31))


def _mix(z: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on ``z``; ``shifted`` is scratch of its shape."""
    xor, multiply, right_shift = np.bitwise_xor, np.multiply, np.right_shift
    xor(z, right_shift(z, _SHIFT30, out=shifted), out=z)
    multiply(z, _MIX1, out=z)
    xor(z, right_shift(z, _SHIFT27, out=shifted), out=z)
    multiply(z, _MIX2, out=z)
    xor(z, right_shift(z, _SHIFT31, out=shifted), out=z)
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


def _check_key(name: str, value: int) -> None:
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def _trial_indices(trials) -> np.ndarray:
    """trials as a new C-ordered uint64 array, or a ValueError naming the first
    that is not an integer in [0, 2**64).  An unsigned array needs no range
    pass, and a range is made by np.arange, not one element at a time."""
    if isinstance(trials, range) and trials.step == 1 and 0 <= trials.start <= trials.stop <= 2**64:
        return np.arange(trials.start, trials.stop, dtype=np.uint64)
    arr = np.atleast_1d(np.asarray(trials))
    if not (arr.dtype.kind == "u" or (arr.dtype.kind == "i" and arr.size and arr.min() >= 0)):
        for value in arr.ravel().tolist():  # Python ints, floats or objects, as numpy read them
            if not isinstance(value, int) or not 0 <= value < 2**64:
                raise ValueError(f"trials must be integers in [0, 2**64), got {value!r}")
    return arr.astype(np.uint64, order="C")


class TrialKeys:
    """The draw-independent inner mix, mix(trial ^ key(seed)), of the given
    trials: an int, a list, a range or an integer array of any shape.

    words(seed, keys, draw) takes it in place of the trials, with the same
    words.  It is mixed in place on a new C-ordered copy of the trials (a
    range's arange), never on the caller's trials, and is read-only.
    """

    __slots__ = ("seed", "mixed")

    def __init__(self, seed: int, trials):
        _check_key("seed", seed)
        mixed = _trial_indices(trials)
        flat = mixed.reshape(-1)
        _mix_blocks(flat, flat, np.uint64(_seed_key(seed)))
        mixed.flags.writeable = False
        self.seed = seed
        self.mixed = mixed


def words(seed: int, trials, draw: int) -> np.ndarray:
    """64-bit words for the given (seed, trial, draw) keys, in the trials'
    shape.  trials are what TrialKeys takes, or the TrialKeys of this seed."""
    keys = trials if isinstance(trials, TrialKeys) else TrialKeys(seed, trials)
    if keys.seed != seed:
        raise ValueError(f"TrialKeys made for seed {keys.seed}, not for seed {seed}")
    h = np.empty_like(keys.mixed)
    _mix_blocks(h.reshape(-1), keys.mixed.reshape(-1), np.uint64(draw & _MASK64))
    return h


def uniforms(seed: int, trials, draw: int) -> np.ndarray:
    """Uniform doubles in [0, 1), one per trial, for the given draw index."""
    w = words(seed, trials, draw)
    w >>= _SHIFT11
    u = w.astype(np.float64)
    u *= _U53_SCALE
    return u


def sample(keys: TrialKeys, draw: int, cum_rows: np.ndarray, row=0) -> np.ndarray:
    """One categorical draw per trial of keys, from cumulative row
    cum_rows[row[t]], or cum_rows[row] for every trial when row is a scalar.

    The draw is sum_k [u >= c_k] over every threshold but the last, which
    float rounding keeps within 1e-16 of 1; rows are non-decreasing, so it
    equals min(searchsorted(c, u, side="right"), last).  It is counted on the
    words one block at a time, into the narrowest dtype that holds last: the
    first compare is written there, and each later one added from one bool
    scratch block.  The row [[0.5, 1.0]] gives the bit u >= 0.5, which is
    w >= 2**63.
    """
    w = words(keys.seed, keys, draw).reshape(-1)
    last = cum_rows.shape[1] - 1
    if last == 0:  # one category
        return np.zeros(w.size, dtype=np.uint8)
    # thresholds[k] is threshold k of every row, contiguous for the gathers
    thresholds = np.ceil(cum_rows[:, :last].T / _U53_SCALE).astype(np.uint64, order="C")
    out = np.empty(w.size, dtype=np.min_scalar_type(last))
    hit = np.empty(min(w.size, _BLOCK), dtype=bool) if last > 1 else None
    one_row = getattr(row, "ndim", 0) == 0  # an int, a numpy scalar or a 0-d array
    for part in _blocks(w.size):
        top = w[part]
        top >>= _SHIFT11
        rows = row if one_row else row[part].astype(np.intp)
        count = out[part]
        np.greater_equal(top, thresholds[0].take(rows), out=count)
        for k in range(1, last):
            count += np.greater_equal(top, thresholds[k].take(rows), out=hit[: top.size])
    return out


def derive_seed(seed: int, stream: int) -> int:
    """A decorrelated child seed for an independent stream (sweep rows etc.):
    ``words(seed, stream, 0xD1BE5EED)``, computed in Python ints."""
    _check_key("seed", seed)
    _check_key("stream", stream)
    return _mix_int(_mix_int(int(stream) ^ _seed_key(seed)) ^ 0xD1BE5EED)
