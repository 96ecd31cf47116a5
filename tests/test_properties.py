"""Property tests of the distribution engine against its closed forms.

Derandomized, so every run draws the same examples.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entdist import rng
from entdist.distribution import (
    analytic_outcomes,
    correction_flips,
    ghz_state,
    run_distribution,
    run_distribution_mixed,
)
from entdist.elements import MixedNoiseWeights, NoiseAngles
from entdist.qstate import fidelity
from oracles import bell_state

TOL = 1e-12

# theta at 0 and pi/2 included on purpose: there a channel stops mixing and
# port patterns die.  Between 1e-162 and 1e-157 a live pattern's probability
# is subnormal, so its conditional cannot be normalized by 1/sqrt(prob).
thetas = st.one_of(
    st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2), st.floats(1e-162, 1e-157)
)
phis = st.floats(0.0, 2 * math.pi, exclude_max=True)
noise = st.builds(lambda t, p: NoiseAngles(t, p).to_params(), thetas, phis)


@settings(derandomize=True, deadline=None)
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


@settings(derandomize=True, deadline=None)
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


@settings(derandomize=True, deadline=None)
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


@settings(derandomize=True, deadline=None)
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
