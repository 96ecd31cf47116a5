"""Property tests of the distribution engine against its closed forms, of
port-pattern projection against a full scan, and of the CLI's canonical JSON.

Derandomized by the Hypothesis profile tests/conftest.py loads, so every run
draws the same examples.
"""
import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from entdist import rng
from entdist.cli import _dump_json, _round12
from entdist.distribution import (
    analytic_outcomes,
    correction_flips,
    ghz_state,
    run_distribution,
    run_distribution_mixed,
)
from entdist.elements import MixedNoiseWeights, NoiseAngles
from entdist.qstate import BasisLabel, H, PureState, V, W1, W2, fidelity, project_paths
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
