"""Property tests of the distribution engine against its closed forms, of
port-pattern projection against a full scan, of the state rebuilds against
the checked constructor, of the samplers' integer thresholds and the derived
seeds against the words, and of the CLI's canonical JSON.

Derandomized by the Hypothesis profile tests/conftest.py loads, so every run
draws the same examples.
"""
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from entdist import protocols, rng
from entdist.cli import _dump_json, _round12
from entdist.distribution import (
    analytic_outcomes,
    correction_flips,
    ghz_state,
    run_distribution,
    run_distribution_mixed,
)
from entdist.elements import MixedNoiseWeights, NoiseAngles, collective_noise, half_wave_plate
from entdist.qstate import (
    BasisLabel,
    H,
    PureState,
    V,
    W1,
    W2,
    apply_element,
    fidelity,
    project_paths,
    strip_frequency,
)
from oracles import bell_state, project_paths_scan

TOL = 1e-12

# theta at 0 and pi/2 included on purpose: there a channel stops mixing and
# port patterns die.  Between 1e-162 and 1e-157 a live pattern's probability
# is subnormal, so its conditional cannot be normalized by 1/sqrt(prob).
thetas = st.one_of(
    st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2), st.floats(1e-162, 1e-157)
)
phis = st.floats(0.0, 2 * math.pi, exclude_max=True)
noise = st.builds(lambda t, p: NoiseAngles(t, p).to_params(), thetas, phis)


@given(noise, noise)
def test_engine_equals_analytic_outcomes(pa, pb):
    outcomes = run_distribution(pa, pb)
    rows = analytic_outcomes(pa, pb)
    assert [o.slots for o in outcomes] == [r.slots for r in rows]
    for o, row in zip(outcomes, rows):
        assert o.reference == row.reference
        assert abs(o.probability - row.probability) <= TOL
        if row.coefficient == 0:
            assert o.conditional is None
        if o.conditional is None:
            continue
        assert abs(o.fidelity - 1.0) <= TOL
        scale = math.sqrt(o.probability)
        for labels, ref_amp in bell_state(row.reference, *o.pattern).amplitudes.items():
            assert abs(o.conditional.amplitude(labels) * scale - row.coefficient * ref_amp) <= TOL


weight_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=4, max_size=4
).filter(any)


@given(weight_lists)
def test_mixture_total_one_and_live_outcomes_exact(raw):
    total = sum(raw)
    outcomes = run_distribution_mixed(MixedNoiseWeights(*(w / total for w in raw)))
    assert abs(sum(o.probability for o in outcomes) - 1.0) <= TOL
    live = [o for o in outcomes if o.conditional is not None]
    assert len(live) == sum(w > 0 for w in raw)
    for o in live:
        assert abs(o.fidelity - 1.0) <= TOL
        reference = ghz_state(o.pattern, correction_flips(o.slots))
        assert abs(fidelity(o.conditional, reference) - 1.0) <= TOL


@given(st.lists(st.tuples(thetas, phis), min_size=2, max_size=6))
def test_pattern_probability_is_product_of_port_factors(angles):
    """Party j leaves port 1 with probability cos^2(theta_j), port 2 with sin^2(theta_j)."""
    outcomes = run_distribution(*(NoiseAngles(t, p).to_params() for t, p in angles))
    assert len(outcomes) == 2 ** len(angles)
    for o in outcomes:
        expected = math.prod(
            math.cos(t) ** 2 if slot == 1 else math.sin(t) ** 2
            for slot, (t, _) in zip(o.slots, angles)
        )
        assert abs(o.probability - expected) <= TOL


# Paths 0..3 occur in states; path 4 never does, so a pattern using it
# matches nothing.  An amplitude of 1e-160 puts a pattern that selects only
# such terms in the subnormal band.
labels = st.builds(BasisLabel, st.sampled_from([H, V]), st.sampled_from([W1, W2, None]), st.integers(0, 3))
amplitudes = st.one_of(
    st.just(1e-160),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)


@st.composite
def states_and_patterns(draw):
    n = draw(st.integers(1, 5))
    terms = draw(st.lists(st.tuples(*[labels] * n), min_size=1, max_size=12, unique=True))
    amps = [draw(st.floats(0.1, 1.0))] + [draw(amplitudes) for _ in terms[1:]]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    state = PureState(n, {t: a / norm for t, a in zip(terms, amps)})
    patterns = []
    for _ in range(draw(st.integers(1, 6))):
        photons = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]  # any subset, any order
        term = draw(st.sampled_from(terms))
        paths = st.one_of(st.just(None), st.integers(0, 4))
        patterns.append({i: term[i].path if (p := draw(paths)) is None else p for i in photons})
    return state, patterns


@given(states_and_patterns())
def test_project_paths_equals_full_scan(case):
    """The indexed lookup gives the scan's probability bit for bit and its
    conditional term for term, in order; every call after the first reuses
    the state's memoized index, and the first pattern is asked again."""
    state, patterns = case
    for pattern in patterns + patterns[:1]:
        prob, cond = project_paths(state, pattern)
        want_prob, want_cond = project_paths_scan(state, pattern)
        assert prob == want_prob
        if want_cond is None:
            assert cond is None
        else:
            assert list(cond.amplitudes.items()) == list(want_cond.amplitudes.items())


def assert_as_if_checked(result: PureState) -> None:
    """A rebuilt state equals the public constructor's state on its own
    amplitudes, term for term in order, and holds only BasisLabels."""
    rebuilt = PureState(result.n_photons, dict(result.amplitudes))
    assert list(result.amplitudes.items()) == list(rebuilt.amplitudes.items())
    assert all(type(l) is BasisLabel for labels in result.amplitudes for l in labels)


class RotateOp:
    """A duck-typed op: a random polarization rotation that may also move the
    photon to another path; it writes plain tuples."""

    def __init__(self, c: complex, s: complex, shift: int):
        self.c, self.s, self.shift = c, s, shift

    def expand(self, label):
        path = label.path + self.shift
        if label.polarization == H:
            return ((H, label.frequency, path), self.c), ((V, label.frequency, path), self.s)
        return (
            ((H, label.frequency, path), -self.s.conjugate()),
            ((V, label.frequency, path), self.c.conjugate()),
        )


def rotation(theta: float, phi: float, shift: int) -> RotateOp:
    return RotateOp(math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)), shift)


ops = st.one_of(
    st.builds(collective_noise, noise),
    st.builds(half_wave_plate, st.integers(0, 3)),
    st.builds(rotation, thetas, phis, st.integers(0, 2)),
)


@given(states_and_patterns(), st.lists(st.tuples(st.integers(0, 4), ops), max_size=4))
def test_rebuilt_states_equal_checked_construction(case, steps):
    """apply_element, project_paths (the subnormal band included) and
    strip_frequency give what the public constructor gives on their terms."""
    state, patterns = case
    for photon, op in steps:
        state = apply_element(state, photon % state.n_photons, op)
        assert_as_if_checked(state)
    for pattern in patterns:
        _, cond = project_paths(state, pattern)
        if cond is not None:
            assert_as_if_checked(cond)
    # one frequency per photon slot, so the state strips; the first of any
    # terms that then coincide is kept, and the rest renormalized
    fixed: dict = {}
    for labels, amp in state.amplitudes.items():
        key = tuple(BasisLabel(l.polarization, (W1, W2)[i % 2], l.path) for i, l in enumerate(labels))
        fixed.setdefault(key, amp)
    peak = max(map(abs, fixed.values()))
    norm = math.sqrt(sum(abs(a / peak) ** 2 for a in fixed.values()))
    fixed_state = PureState(state.n_photons, {k: a / peak / norm for k, a in fixed.items()})
    assert_as_if_checked(strip_frequency(fixed_state))


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40).flatmap(
        lambda t: st.tuples(st.just(t), st.permutations(range(len(t))))
    ),
)
def test_words_commute_with_trial_permutation(seed, draw, trials_and_perm):
    trials, perm = trials_and_perm
    trials = np.array(trials, dtype=np.uint64)
    perm = np.array(perm)
    assert np.array_equal(rng.words(seed, trials[perm], draw), rng.words(seed, trials, draw)[perm])


@given(st.integers(0, 2**64 - 1))
@example(0)
@example(2**64 - 1)
def test_seed_mix_in_python_ints_equals_the_array_mix(z):
    arr = np.array([z], dtype=np.uint64)
    assert rng._mix_int(z) == int(rng._mix(arr, np.empty_like(arr))[0])


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
@example(0, 0)
@example(2**64 - 1, 2**64 - 1)
@example(0, 2**64 - 1)
@example(2**64 - 1, 0)
def test_derived_seed_is_the_word_of_its_stream(seed, stream):
    assert rng.derive_seed(seed, stream) == int(rng.words(seed, stream, 0xD1BE5EED)[0])


@st.composite
def words_and_thresholds(draw):
    """A threshold c in [0, 1 + 1e-15] and a word: random, or with its top 53
    bits within two of ceil(c * 2**53), computed exactly."""
    c = draw(st.one_of(st.floats(0.0, 1.0 + 1e-15), st.floats(0.0, 1e-300)))
    if draw(st.booleans()):
        return draw(st.integers(0, 2**64 - 1)), c
    top = math.ceil(Fraction(c) * 2**53) + draw(st.integers(-2, 1))
    return (min(max(top, 0), 2**53 - 1) << 11) | draw(st.integers(0, 2**11 - 1)), c


@given(words_and_thresholds())
@example((1 << 63, 0.5))
@example(((1 << 63) - 1, 0.5))
@example((1 << 11, 5e-324))
@example(((1 << 11) - 1, 5e-324))
@example((2**64 - 1, 1.0))
@example((0, 0.0))
def test_word_thresholds_equal_uniform_thresholds(case):
    """(w >> 11) >= ceil(c * 2**53) exactly when the uniform of w reaches c,
    and w >= 2**63 exactly when it reaches 0.5; _sample counts on the word."""
    w, c = case
    with mock.patch.object(rng, "words", lambda seed, trials, draw: np.array([w], dtype=np.uint64)):
        u = float(rng.uniforms(0, 0, 0)[0])
        drawn = protocols._sample(np.array([[c, 1.0]]), 0, 0, np.zeros(1, np.uint64), 0)
    assert ((w >> 11) >= math.ceil(c * 2**53)) == (u >= c)
    assert (np.uint64(w) >= protocols._HALF_WORD) == (u >= 0.5)
    assert drawn.tolist() == [int(u >= c)]


json_leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(float("nan")),
    st.just(-0.0),
    st.integers(-(2**63), 2**63),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_dump_json_round_trips(value):
    """The JSON text loads back to the rounded value, and dumping that again
    gives the same text: 12 significant digits survive a round trip."""
    text = _dump_json(value)
    loaded = json.loads(text)
    assert loaded == _round12(value)
    assert _dump_json(loaded) == text
