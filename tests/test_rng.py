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


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_derive_seed_rejects_out_of_range_keys(seed, stream):
    with pytest.raises(ValueError, match="seed" if stream == 0 else "stream"):
        rng.derive_seed(seed, stream)


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
