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
caller's trials or keys; derive_seed works wholly in Python ints.  The
calling thread and up to _WORKERS - 1 helper threads, started for that call
alone, take one call's blocks from a shared iterator; a block writes only its
own slices, so no bit depends on the thread.  When no thread can start, or
the interpreter is exiting, the threads running take every block left; after
an error the blocks left are skipped.  Between calls rng keeps no thread.

A call allocates what it returns before its transient words.  The words are
then freed on top of what the call returns, and the next call's words reuse
their space, so repeated calls do not grow the heap: sample allocates its
draws before it mixes the words it reduces, and words on TrialKeys allocates
its result alone.
"""
from __future__ import annotations

import _thread
import operator
import os

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15  # keys the seed, in Python ints
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_U53_SCALE = 2.0 ** -53
_BLOCK = 1 << 15  # words mixed or reduced per pass; a block and its scratch fit in L2 cache
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = map(np.uint64, (11, 27, 30, 31))
_WORKERS_MAX = 8  # the most threads one block loop uses, the calling thread included


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


def _cpu_workers() -> int:
    """The number of CPUs this process may run on, from 1 to _WORKERS_MAX; read once, at import."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows): every CPU
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _WORKERS_MAX))


_WORKERS = _cpu_workers()  # threads one block loop may use, the calling thread included


def _fork(size: int, body, scratch=None) -> None:
    """body(part, buf) for each _BLOCK slice part of range(size), or once for
    all of it when size <= _BLOCK; buf is the thread's scratch block of dtype
    scratch, or None.  A call of more than one block starts up to _WORKERS - 1
    helper threads, which end before it returns, or raises the first error.
    A body writes only its own slices and calls no public function."""
    if size <= _BLOCK:  # at most one block: nothing to share, so no thread or lock
        return body(slice(0, size), None if scratch is None else np.empty(size, dtype=scratch))
    blocks = range(0, size, _BLOCK)
    starts, errors, helpers = iter(blocks), [], []

    def drain() -> None:
        try:
            buf = None if scratch is None else np.empty(_BLOCK, dtype=scratch)
            for start in starts:  # next() is atomic: each block goes to one thread
                if errors:
                    break
                body(slice(start, min(start + _BLOCK, size)), buf)
        except BaseException as exc:  # raised by the caller once every helper has ended
            errors.append(exc)

    def helper(ended) -> None:
        try:
            drain()
        finally:
            ended.release()

    for _ in range(min(_WORKERS, len(blocks)) - 1):
        # _thread, not threading.Thread: Thread.start() returns only once the
        # new thread runs, so the caller would wait on each start in turn.
        ended = _thread.allocate_lock()
        ended.acquire()
        try:
            _thread.start_new_thread(helper, (ended,))
        except RuntimeError:  # exiting, or no thread can start: the threads running take the rest
            break
        helpers.append(ended)
    drain()
    for ended in helpers:
        ended.acquire()
    if errors:
        raise errors[0]


def _mix_blocks(out: np.ndarray, src: np.ndarray, xor) -> None:
    """out = _mix(src ^ xor) for 1-D uint64 arrays, one block at a time; out may be src."""

    def body(part: slice, shifted: np.ndarray) -> None:
        block = np.bitwise_xor(src[part], xor, out=out[part])
        _mix(block, shifted[: block.size])

    _fork(out.size, body, np.uint64)


def _seed_key(seed: int) -> int:
    return _mix_int(seed ^ _GOLDEN)


def _check_key(name: str, value) -> int:
    """value as a Python int, or a ValueError naming it unless it is an integer in [0, 2**64)."""
    try:
        key = operator.index(value)  # an int or a numpy integer; never a float or a string
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= key < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {key}")
    return key


def _trial_indices(trials) -> np.ndarray:
    """trials as a new C-ordered uint64 array, or a ValueError naming the first
    that is not an integer in [0, 2**64).  An unsigned array needs no range
    pass, and a range is made by np.arange, not one element at a time; a range
    too long to hold is a MemoryError naming its length."""
    if isinstance(trials, range) and trials.step == 1 and 0 <= trials.start <= trials.stop <= 2**64:
        n = trials.stop - trials.start
        if n > 2**53:  # np.arange's float length is exact up to here (64 PiB), then off or 0
            raise MemoryError(f"cannot hold {n} trials in memory")
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
        seed = _check_key("seed", seed)
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
    if keys.seed != _check_key("seed", seed):
        raise ValueError(f"TrialKeys made for seed {keys.seed}, not for seed {seed}")
    draw = np.uint64(_check_key("draw", draw))
    h = np.empty_like(keys.mixed)
    _mix_blocks(h.reshape(-1), keys.mixed.reshape(-1), draw)
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
    scratch block.  One threshold for every trial is compared on the words
    unshifted: the row [[0.5, 1.0]] gives the bit w >= 2**63.  A draw words
    would refuse, a row of a dtype that is not integer (bool, float or
    object), a bad shape or a scalar row out of range is a ValueError, raised
    before any word is mixed; so is a per-trial row outside [0, rows), per
    block (not for one category).
    """
    cum_rows, row, size = np.asarray(cum_rows), np.asarray(row), keys.mixed.size
    _check_key("draw", draw)
    if cum_rows.ndim != 2:
        raise ValueError(f"cum_rows must be 2-D (rows, categories), got shape {cum_rows.shape}")
    if row.dtype.kind not in "iu":  # a bool, float or object row would index, truncate or overflow
        raise ValueError(f"row must be an integer or an integer array, got dtype {row.dtype}")
    if row.ndim == 0 and not 0 <= int(row) < len(cum_rows):
        raise ValueError(f"row {row} is out of range for cum_rows of {len(cum_rows)} rows")
    if row.ndim and row.shape != (size,):
        raise ValueError(f"row has shape {row.shape}, expected ({size},) for {size} trials")
    last = cum_rows.shape[1] - 1
    if last == 0:  # one category: no word to mix
        return np.zeros(size, dtype=np.uint8)
    # thresholds[k] is threshold k of every row, contiguous for the gathers
    thresholds = np.ceil(cum_rows[:, :last].T / _U53_SCALE).astype(np.uint64, order="C")
    out = np.empty(size, dtype=np.min_scalar_type(last))  # before the words it outlives
    w = words(keys.seed, keys, draw).reshape(-1)
    if last == 1 and row.ndim == 0:  # one threshold t: (w >> 11) >= t is w >= t << 11
        t, bits = int(thresholds[0, row]), out.view(bool)
        if t >= 2**53:  # above every w >> 11
            out.fill(0)
        else:
            bound = np.uint64(t << 11)
            _fork(w.size, lambda part, _: np.greater_equal(w[part], bound, out=bits[part]))
        return out

    def body(part: slice, hit: np.ndarray | None) -> None:
        top = w[part]
        top >>= _SHIFT11
        rows = row if row.ndim == 0 else row[part].astype(np.intp)
        if row.ndim and rows.view(np.uintp).max(initial=0) >= len(cum_rows):  # -1 reads 2**64 - 1
            bad = rows[rows.view(np.uintp) >= len(cum_rows)][0]
            raise ValueError(f"row {bad} is out of range for cum_rows of {len(cum_rows)} rows")
        count = out[part]
        np.greater_equal(top, thresholds[0].take(rows), out=count)
        for k in range(1, last):
            count += np.greater_equal(top, thresholds[k].take(rows), out=hit[: top.size])

    _fork(w.size, body, bool if last > 1 else None)
    return out


def derive_seed(seed: int, stream: int) -> int:
    """A decorrelated child seed for an independent stream (sweep rows etc.):
    ``words(seed, stream, 0xD1BE5EED)``, computed in Python ints."""
    seed, stream = _check_key("seed", seed), _check_key("stream", stream)
    return _mix_int(_mix_int(stream ^ _seed_key(seed)) ^ 0xD1BE5EED)
