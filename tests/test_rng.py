import _thread
import os
import threading
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from entdist import rng
from oracles import TrialRng

# frozen from a pure-python big-int reference of the same mixing chain
GOLDEN = [
    ((0, 0, 0), 0x33FE8BD4F9C57863),
    ((0, 1, 0), 0x45CEC29CD9A24E4B),
    ((0, 0, 1), 0x2AEA2EC8299DF491),
    ((7, 123456, 3), 0xAFFDCE9D80A4E8C8),
    ((2**63 + 5, 999, 42), 0xF80D9C534C788501),
]


def test_golden_words():
    for (seed, trial, draw), expected in GOLDEN:
        assert int(rng.words(seed, trial, draw)[0]) == expected


def test_uniform_range_and_value():
    u = rng.uniforms(0, np.arange(10000), 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(float(rng.uniforms(0, 0, 0)[0]) - 0.20310281705476096) < 1e-18


def test_order_independence():
    trials = np.arange(1000)
    perm = np.random.default_rng(1).permutation(1000)
    direct = rng.words(99, trials, 5)
    assert np.array_equal(rng.words(99, trials[perm], 5), direct[perm])


def test_trial_rng_matches_words():
    stream = TrialRng(seed=7, trial=123456)
    first = stream.uniform()
    assert stream.draw == 1
    assert first == float(rng.uniforms(7, 123456, 0)[0])
    assert stream.uniform() == float(rng.uniforms(7, 123456, 1)[0])


def test_seeds_decorrelate():
    a = rng.words(1, np.arange(100), 0)
    b = rng.words(2, np.arange(100), 0)
    assert not np.array_equal(a, b)
    assert rng.derive_seed(3, 0) != rng.derive_seed(3, 1)


def test_uniform_mean_is_sane():
    u = rng.uniforms(42, np.arange(200000), 1)
    assert abs(u.mean() - 0.5) < 3 * (1 / 12) ** 0.5 / 200000**0.5


def test_input_kinds_give_the_same_words():
    for (seed, trial, draw), expected in GOLDEN:
        for trials in (trial, [trial], np.array([trial], dtype=np.uint64)):
            assert rng.words(seed, trials, draw).tolist() == [expected]
    many = [t for (_, t, _), _ in GOLDEN]
    from_list = rng.words(7, many, 3)
    assert np.array_equal(rng.words(7, np.array(many, dtype=np.uint64), 3), from_list)
    assert np.array_equal(rng.words(7, np.array(many, dtype=np.int64), 3), from_list)
    grid = np.asfortranarray(np.arange(12, dtype=np.uint64).reshape(3, 4))
    assert np.array_equal(rng.words(7, grid, 3), rng.words(7, np.arange(12), 3).reshape(3, 4))


def test_caller_trials_are_not_modified():
    """words and uniforms mix in place, but never in the caller's array."""
    for dtype in (np.uint64, np.int64):
        trials = np.arange(100000, dtype=dtype)
        rng.words(3, trials, 16)
        rng.uniforms(3, trials, 16)
        assert np.array_equal(trials, np.arange(100000, dtype=dtype))


def test_blocked_mixing_matches_single_words():
    """Arrays longer than one mixing block give the per-trial words."""
    trials = np.array([0, 1, 2**15 - 1, 2**15, 2**15 + 1, 70000, 2**40], dtype=np.uint64)
    full = rng.words(11, np.arange(70001, dtype=np.uint64), 4)
    singles = [int(rng.words(11, int(t), 4)[0]) for t in trials]
    assert rng.words(11, trials, 4).tolist() == singles
    assert full[trials[:-1]].tolist() == singles[:-1]


@pytest.mark.parametrize("n", [1, 2**15 - 1, 2**15, 2**15 + 1, 70001])
def test_trial_keys_give_the_words_of_the_arange(n):
    for trials in (np.arange(n, dtype=np.uint64), range(n)):
        keys = rng.TrialKeys(13, trials)
        for draw in (0, 1, 2, 16):
            assert np.array_equal(rng.words(13, keys, draw), rng.words(13, np.arange(n), draw))
        assert np.array_equal(rng.uniforms(13, keys, 5), rng.uniforms(13, np.arange(n), 5))


def test_trial_keys_of_another_seed_are_rejected():
    keys = rng.TrialKeys(1, np.arange(10))
    for draw_fn in (rng.words, rng.uniforms):
        with pytest.raises(ValueError, match="seed"):
            draw_fn(2, keys, 0)
    with pytest.raises(ValueError, match="seed"):
        rng.TrialKeys(2**64, np.arange(10))


def test_words_never_modify_the_keys():
    keys = rng.TrialKeys(3, np.arange(70001))
    before = keys.mixed.copy()
    for draw in (0, 1, 16):
        rng.words(3, keys, draw)
        rng.uniforms(3, keys, draw)
    assert np.array_equal(keys.mixed, before)
    assert not keys.mixed.flags.writeable


def test_trial_keys_take_any_trials_words_takes():
    """An int, a list, a range or an array of any shape keys the words of
    those trials."""
    grid = np.asfortranarray(np.array([[5, 2**40], [0, 2**64 - 1], [7, 7]], dtype=np.uint64))
    ranges = (range(5, 9), range(2**64 - 2, 2**64), range(0, 10, 3), range(9, 2, -2), range(4, 4))
    for trials in (123456, [3, 1, 4], grid, *ranges):
        keys = rng.TrialKeys(7, trials)
        assert keys.mixed.shape == np.atleast_1d(trials).shape
        for draw in (0, 3):
            assert np.array_equal(rng.words(7, keys, draw), rng.words(7, trials, draw))
    assert rng.words(7, rng.TrialKeys(7, 123456), 3).tolist() == [0xAFFDCE9D80A4E8C8]


def test_trials_outside_the_keys_are_rejected():
    """A trial that is not an integer in [0, 2**64) is a ValueError naming it,
    not the words of its wrapped value (-1) or its truncation (1.5), nor an
    OverflowError (2**64)."""
    cases = [(-1, "-1"), (2**64, str(2**64)), (1.5, "1.5"), ([3, -2], "-2"),
             (np.array([4, -1]), "-1"), ([0.0, 1.0], "0.0"), ("7", "'7'"),
             (range(-1, 3), "-1"), (range(2**64 - 1, 2**64 + 1), str(2**64))]
    for trials, shown in cases:
        for make in (rng.TrialKeys, lambda seed, t: rng.words(seed, t, 0)):
            with pytest.raises(ValueError) as info:
                make(1, trials)
            assert str(info.value) == f"trials must be integers in [0, 2**64), got {shown}"


@pytest.mark.parametrize("n", [2**61, 2**63, 2**64 - 1])
def test_a_range_too_long_to_hold_is_a_memory_error_naming_its_length(n):
    """np.arange gave 0 trials from 2**63 on and numpy's unnamed ValueError
    below it; the check allocates nothing."""
    for make in (rng.TrialKeys, lambda seed, t: rng.words(seed, t, 0)):
        with pytest.raises(MemoryError, match=f"^cannot hold {n} trials in memory$"):
            make(0, range(n))


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_derive_seed_rejects_out_of_range_keys(seed, stream):
    with pytest.raises(ValueError, match="seed" if stream == 0 else "stream"):
        rng.derive_seed(seed, stream)


_NOT_INTEGERS = [1.9, 2.0, np.float64(2.0), "7", None, Fraction(2)]


@pytest.mark.parametrize("value", _NOT_INTEGERS, ids=repr)
def test_seeds_and_streams_that_are_not_integers_are_rejected(value):
    """Not folded onto an integer: derive_seed(0, 2.5) was derive_seed(0, 2)."""
    keys_of_2 = rng.TrialKeys(2, [3])
    for name, make in [("seed", lambda v: rng.TrialKeys(v, [3])),
                       ("seed", lambda v: rng.words(v, [3], 0)),
                       ("seed", lambda v: rng.words(v, keys_of_2, 0)),
                       ("seed", lambda v: rng.derive_seed(v, 0)),
                       ("stream", lambda v: rng.derive_seed(0, v))]:
        with pytest.raises(ValueError) as info:
            make(value)
        assert str(info.value) == f"{name} must be an integer, got {value!r}"


def test_numpy_integer_seeds_and_streams_give_the_words_of_the_int():
    for seed, stream in [(np.uint64(2**63 + 5), np.uint64(2**64 - 1)), (np.int64(7), np.int8(3)),
                         (np.uint8(0), True)]:
        assert np.array_equal(rng.words(seed, np.arange(9), 3), rng.words(int(seed), np.arange(9), 3))
        assert rng.TrialKeys(seed, [1]).seed == int(seed) and type(rng.TrialKeys(seed, 1).seed) is int
        assert rng.derive_seed(seed, stream) == rng.derive_seed(int(seed), int(stream))


def test_each_seed_has_one_fixed_point_trial():
    """The trial key(s) has inner mix mix(0) = 0, so its words are mix(draw)
    for every seed s; the seed 0x9E3779B97F4A7C15 makes it trial 0."""
    golden = 0x9E3779B97F4A7C15
    for seed in (0, 7, 2**63 + 5):
        key = rng._seed_key(seed)
        assert rng.TrialKeys(seed, [key]).mixed.tolist() == [0]
        assert np.array_equal(rng.words(seed, [key], 5), rng.words(golden, [0], 5))
        assert rng.words(seed, key, 0).tolist() == [0]
    assert rng._seed_key(golden) == 0


def test_words_and_samples_do_not_depend_on_the_worker_count(workers, monkeypatch, rand):
    """17 blocks, the last of 51 words, split into runs of 17, 8 + 9 and
    5 + 6 + 6 blocks."""
    monkeypatch.setattr(rng, "_BLOCK", 4093)
    n = 2**16 + 3
    tables = np.cumsum(rand.dirichlet(np.ones(5), size=6), axis=1)
    rows = rand.integers(0, len(tables), size=n).astype(np.uint8)
    results = []
    for k in (1, 2, 3):
        workers(k)
        keys = rng.TrialKeys(9, range(n))
        results.append([
            keys.mixed.tolist(),
            rng.words(9, keys, 16).tolist(),
            rng.words(9, np.arange(n), 3).tolist(),
            rng.sample(keys, 2, tables, rows).tolist(),
            rng.sample(keys, 1, np.array([[0.5, 1.0]])).tolist(),
        ])
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("n", [5, 2 * 2**15 + 5])
@pytest.mark.parametrize("last", [1, 3])
def test_sample_takes_a_row_sequence_as_its_array(n, last, rand):
    """A list or tuple of rows draws as its array does, within one block
    and across blocks."""
    tables = np.cumsum(rand.dirichlet(np.ones(last + 1), size=3), axis=1)
    rows = rand.integers(0, len(tables), size=n)
    keys = rng.TrialKeys(4, range(n))
    expected = rng.sample(keys, 16, tables, rows).tolist()
    assert rng.sample(keys, 16, tables, rows.tolist()).tolist() == expected
    assert rng.sample(keys, 16, tables, tuple(rows.tolist())).tolist() == expected


@pytest.mark.parametrize(
    "cum_rows, row, message",
    [
        ([[0.5, 1.0], [0.2, 1.0]], [0, 1, 0, 1, 1], r"row has shape \(5,\), expected \(3,\) for 3 trials"),
        ([[0.5, 1.0], [0.2, 1.0]], [0, 1], r"row has shape \(2,\), expected \(3,\) for 3 trials"),
        ([[0.5, 1.0], [0.2, 1.0]], [[0, 1, 0]], r"row has shape \(1, 3\), expected \(3,\) for 3 trials"),
        ([[0.5, 1.0], [0.2, 1.0]], 5, "row 5 is out of range for cum_rows of 2 rows"),
        ([[0.5, 1.0], [0.2, 1.0]], -1, "row -1 is out of range for cum_rows of 2 rows"),
        ([0.5, 1.0], 0, r"cum_rows must be 2-D \(rows, categories\), got shape \(2,\)"),
        ([[[0.5, 1.0]]], 0, r"cum_rows must be 2-D \(rows, categories\), got shape \(1, 1, 2\)"),
    ],
    ids=["long row", "short row", "2-D row", "row past the end", "negative row", "1-D cum_rows", "3-D cum_rows"],
)
def test_sample_refuses_rows_that_do_not_fit(monkeypatch, cum_rows, row, message):
    """A row array not one per trial, a scalar row outside cum_rows or a
    cum_rows that is not 2-D is a ValueError naming the argument and both
    sizes, raised before any word is mixed."""
    keys = rng.TrialKeys(1, range(3))
    monkeypatch.setattr(rng, "_mix_blocks", None)  # any word mixed would be a TypeError
    with pytest.raises(ValueError, match=f"^{message}$"):
        rng.sample(keys, 0, np.array(cum_rows), row)


@pytest.mark.parametrize(
    "bad, dtype", [(-1, np.int64), (-1, np.int8), (5, np.int64), (5, np.uint8), (5, np.uint64)]
)
def test_sample_refuses_a_per_trial_row_outside_its_rows(workers, bad, dtype):
    """-1 drew trial 1 from the last row, and 5 raised numpy's unnamed
    IndexError; each is a ValueError naming the row, in any block."""
    cum = np.array([[0.5, 1.0], [0.2, 1.0]])
    message = f"^row {bad} is out of range for cum_rows of 2 rows$"
    with pytest.raises(ValueError, match=message):
        rng.sample(rng.TrialKeys(1, range(3)), 0, cum, np.array([0, bad, 0], dtype=dtype))
    workers(2)
    rows = np.zeros(3 * rng._BLOCK, dtype=dtype)
    rows[2 * rng._BLOCK + 7] = bad  # in the last block only
    with pytest.raises(ValueError, match=message):
        rng.sample(rng.TrialKeys(1, range(rows.size)), 0, cum, rows)


def test_worker_count_follows_the_cpus_the_process_may_use(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert rng._cpu_workers() == min(len(os.sched_getaffinity(0)), rng._WORKERS_MAX)
    assert 1 <= rng._WORKERS <= rng._WORKERS_MAX
    # without an affinity call, as on macOS: every CPU, or 1 when the count is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    cap = rng._WORKERS_MAX
    for cpus, expected in [(None, 1), (1, 1), (3, min(3, cap)), (64, cap)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert rng._cpu_workers() == expected


@pytest.mark.parametrize("failing", [{1}, {1, 2}, {0, 2}])
def test_a_failed_run_is_raised_after_every_run_has_ended(workers, monkeypatch, failing):
    """Three blocks, held at once by three threads; a failed block's error is
    raised only once the others have ended."""
    workers(3)
    monkeypatch.setattr(rng, "_BLOCK", 10)
    all_taken, ended, threads = threading.Barrier(3, timeout=10), [], set()

    def body(part, buf):
        threads.add(threading.get_ident())
        all_taken.wait()
        if part.start // 10 in failing:
            raise KeyError(part.start // 10)
        time.sleep(0.1)
        ended.append(part.start // 10)

    with pytest.raises(KeyError) as info:
        rng._fork(25, body)
    assert info.value.args[0] in failing
    assert sorted(ended) == sorted({0, 1, 2} - failing) and len(threads) == 3


def test_the_blocks_after_an_error_are_skipped(workers):
    workers(1)
    started = []

    def body(part, buf):
        started.append(part.start // rng._BLOCK)
        if part.start:
            raise KeyError(part.start)

    with pytest.raises(KeyError):
        rng._fork(5 * rng._BLOCK, body)
    assert started == [0, 1]


def test_one_block_runs_on_the_caller_and_starts_no_thread(workers, thread_starts):
    caller = threading.get_ident()
    for k in (1, 2, 3):
        workers(k)
        seen = []
        for size in (0, 1, rng._BLOCK):
            rng._fork(size, lambda part, buf: seen.append((part, buf, threading.get_ident())))
        rng._fork(5, lambda part, buf: seen.append((part, buf.dtype, buf.size)), np.uint64)
        assert seen == [(slice(0, 0), None, caller), (slice(0, 1), None, caller),
                        (slice(0, rng._BLOCK), None, caller), (slice(0, 5), np.dtype(np.uint64), 5)]
    assert thread_starts.started == []


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("size", [11, 25, 47])  # 2, 3 and 5 blocks of 10
def test_a_longer_call_runs_each_block_once_on_its_own_helpers(workers, monkeypatch,
                                                               thread_starts, k, size):
    """min(_WORKERS, blocks) - 1 helpers, each ended when the call returns."""
    workers(k)
    monkeypatch.setattr(rng, "_BLOCK", 10)
    seen = []

    def body(part, buf):
        time.sleep(0.01)  # lets every helper take a block
        seen.append((part, buf.size))

    rng._fork(size, body, np.uint64)
    assert sorted(seen, key=lambda s: s[0].start) == [
        (slice(s, min(s + 10, size)), 10) for s in range(0, size, 10)]
    assert len(thread_starts.started) == min(k, -(-size // 10)) - 1
    assert len(thread_starts.returned) == len(thread_starts.started)


def test_a_returned_call_holds_no_reference_to_its_body(workers, monkeypatch):
    """A call's helpers end with it, so its body, and the arrays the body
    holds, are freed as soon as the caller drops them."""
    workers(2)
    monkeypatch.setattr(rng, "_BLOCK", 10)
    seen = []

    def body(part, buf):
        seen.append(part.start)

    body_ref = weakref.ref(body)
    rng._fork(25, body)
    del body
    assert body_ref() is None and sorted(seen) == [0, 10, 20]


def test_a_helper_whose_setup_fails_has_its_error_raised(workers, monkeypatch):
    """The helper's scratch block cannot be made, and fails only once the
    caller has run every block: the call still raises that error."""
    workers(2)
    monkeypatch.setattr(rng, "_BLOCK", 10)
    caller, drained, seen, empty = threading.get_ident(), threading.Event(), [], np.empty

    def helper_empty(*args, **kwargs):
        if threading.get_ident() != caller:
            drained.wait(timeout=10)
            raise MemoryError("no scratch for the helper")
        return empty(*args, **kwargs)

    def body(part, buf):
        seen.append(part.start)
        if part.start == 20:
            drained.set()

    monkeypatch.setattr(np, "empty", helper_empty)
    with pytest.raises(MemoryError, match="no scratch for the helper"):
        rng._fork(25, body, np.uint64)
    assert seen == [0, 10, 20]


def test_a_helper_that_starts_after_the_caller_drained_ends_before_the_call_returns(
        workers, monkeypatch):
    workers(2)
    monkeypatch.setattr(rng, "_BLOCK", 10)
    drained, seen, entered, start = threading.Event(), [], [], _thread.start_new_thread

    def late_start(function, args):
        def late():
            drained.wait(timeout=10)
            time.sleep(0.1)  # a call that did not wait would have returned by now
            entered.append(function)
            function(*args)

        return start(late, ())

    def body(part, buf):
        seen.append((part.start, threading.get_ident()))
        if part.start == 20:
            drained.set()

    monkeypatch.setattr(_thread, "start_new_thread", late_start)
    rng._fork(25, body)
    assert len(entered) == 1
    assert seen == [(s, threading.get_ident()) for s in (0, 10, 20)]
