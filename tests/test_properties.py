"""Property tests of the distribution engine against its closed forms, of
port-pattern projection against a full scan, of the outcome tables against a
per-photon dict spread, of the state rebuilds against the checked
constructor, of the frequency strip's stored path index against a rebuilt
one, of element writes against a two-lookup write loop, of each
state's kept norm against a fresh sum, of the samplers' integer thresholds
and the derived seeds against the words, and of the CLI's canonical JSON.

Derandomized by the Hypothesis profile tests/conftest.py loads, so every run
draws the same examples.
"""
import copy
import itertools
import json
import math
import pickle
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from entdist import elements, protocols, qstate, rng
from entdist.cli import _dump_json, _json_float
from entdist.distribution import (
    correction_flips,
    ghz_state,
    run_distribution,
    run_distribution_mixed,
)
from entdist.elements import (
    ElementOp,
    MixedNoiseWeights,
    NoiseAngles,
    NoiseParams,
    collective_noise,
    frequency_shifter,
    half_wave_plate,
    pbs,
    wdm,
)
from entdist.protocols import baseline_direct
from entdist.qstate import (
    BasisLabel,
    H,
    PureState,
    V,
    W1,
    W2,
    apply_element,
    fidelity,
    inner_product,
    project_paths,
    strip_frequency,
)
from oracles import (
    _round12,
    analytic_outcomes,
    apply_element_two_lookups,
    baseline_error_rates,
    bell_state,
    dump_json_two_pass,
    joint_outcome_distribution_dict_spread,
    project_paths_scan,
)

TOL = 1e-12

# theta at 0 and pi/2 included on purpose: there a channel stops mixing and
# port patterns die.  Between 1e-162 and 1e-157 a live pattern's probability
# is subnormal, so its conditional cannot be normalized by 1/sqrt(prob).
thetas = st.one_of(
    st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2), st.floats(1e-162, 1e-157)
)
phis = st.floats(0.0, 2 * math.pi, exclude_max=True)
noise = st.builds(lambda t, p: NoiseAngles(t, p).to_params(), thetas, phis)


def full_noise_params(theta: float, chi: float, phi: float) -> NoiseParams:
    """The paper's whole channel family: alpha = cos(theta) e^{i chi} and
    beta = sin(theta) e^{i phi}, so that alpha is complex too."""
    return NoiseParams(
        math.cos(theta) * complex(math.cos(chi), math.sin(chi)),
        math.sin(theta) * complex(math.cos(phi), math.sin(phi)),
    )


full_noise = st.builds(full_noise_params, thetas, phis, phis)
any_noise = st.one_of(noise, full_noise)


@given(any_noise, any_noise)
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
            assert abs(o.conditional.amplitudes.get(labels, 0j) * scale - row.coefficient * ref_amp) <= TOL


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


@given(st.lists(any_noise, min_size=2, max_size=6))
def test_pattern_probability_is_product_of_port_factors(channels):
    """Party j leaves port 1 with probability |alpha_j|^2 (cos^2(theta_j)),
    port 2 with |beta_j|^2 (sin^2(theta_j))."""
    outcomes = run_distribution(*channels)
    assert len(outcomes) == 2 ** len(channels)
    for o in outcomes:
        expected = math.prod(
            abs(c.alpha) ** 2 if slot == 1 else abs(c.beta) ** 2
            for slot, c in zip(o.slots, channels)
        )
        assert abs(o.probability - expected) <= TOL


def _within_5_sigma(count: int, n: int, p: float) -> bool:
    """count is within five binomial standard deviations of n * p, give or
    take the one count a uniform of exactly 0 can add to an outcome of
    probability near 0: Hypothesis tries the seed 0x9E3779B97F4A7C15, whose
    key is 0, so trial 0 has the word mix(0) = 0 at draw 0."""
    return abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1


@given(thetas, phis, thetas, phis, st.integers(0, 2**64 - 1))
def test_baseline_errors_match_the_closed_form(theta_a, phi_a, theta_b, phi_b, seed):
    """Per basis, the baseline's error count is within 5 sigma of its sifted
    count times the closed-form error rate."""
    noise = NoiseAngles(theta_a, phi_a).to_params(), NoiseAngles(theta_b, phi_b).to_params()
    stats = baseline_direct(10000, *noise, seed)
    for basis, rate in baseline_error_rates(theta_a, phi_a, theta_b, phi_b).items():
        assert _within_5_sigma(stats.errors_by_basis[basis], stats.sifted_by_basis[basis], rate)


# both channels noisy, with phases that are not 0
noisy_thetas = st.floats(0.01, math.pi / 2)
nonzero_phis = st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True)


@settings(max_examples=20)
@given(
    st.lists(st.tuples(noisy_thetas, nonzero_phis, noisy_thetas, nonzero_phis), min_size=1, max_size=3),
    st.integers(0, 2**64 - 1),
)
def test_sweep_baseline_qber_matches_the_closed_form(grid, seed):
    """Each sweep row's baseline QBER is within 5 sigma of the closed form.
    A sifted pair is a Z or an X pair with probability 1/2 each, so it errs
    with probability (e_Z + e_X) / 2; sigma is the binomial one over the
    fewest sifted pairs within 5 sigma of n / 2."""
    n = 10000
    rows = protocols.qber_vs_theta_sweep(
        [(NoiseAngles(ta, pa), NoiseAngles(tb, pb)) for ta, pa, tb, pb in grid], n, seed
    )
    sifted = n / 2 - 5 * math.sqrt(n / 4)
    for angles, row in zip(grid, rows, strict=True):
        rates = baseline_error_rates(*angles)
        p = (rates["Z"] + rates["X"]) / 2
        assert _within_5_sigma(row.baseline_qber * sifted, sifted, p)


@given(st.lists(st.tuples(thetas, phis), min_size=2, max_size=3), st.integers(0, 2**64 - 1))
def test_pattern_frequencies_are_products_of_port_factors(angles, seed):
    """The port patterns the BBM92 (two parties) and QSS (three) runs draw
    come up within 5 sigma of n times the product of cos^2(theta_j), for a
    party leaving port 1, and sin^2(theta_j), for port 2."""
    n = 10000
    noise = [NoiseAngles(t, p).to_params() for t, p in angles]
    bases = protocols._BBM92_BASES if len(angles) == 2 else protocols.BASIS_PAIRS["xy"]
    slots, live = protocols._live(noise)
    model = protocols._model(n, bases, live)
    row, _ = protocols._columns(model, rng.TrialKeys(seed, range(n)))
    counts = np.bincount(row >> model.n, minlength=len(live))
    for pattern_slots, count in zip(slots, counts.tolist()):
        expected = math.prod(
            math.cos(t) ** 2 if slot == 1 else math.sin(t) ** 2
            for slot, (t, _) in zip(pattern_slots, angles)
        )
        assert _within_5_sigma(count, n, expected)


@given(st.lists(any_noise, min_size=2, max_size=3), st.sampled_from(sorted(protocols.BASIS_PAIRS)))
def test_no_word_draws_a_wrong_outcome_of_a_sifted_row(noise, basis_pair):
    """A scheme table row is snapped to the multiples of 2**-n its GHZ state's
    Pauli outcome probabilities are, so its error outcomes have no mass.  A
    word draws category o when its top 53 bits u lie in [t_(o-1), t_o), with
    t_k = ceil(c_k * 2**53) for the row's cumulative thresholds c_k but the
    last, t_(-1) = 0 and t_last = 2**53; so o has no word when t_o <= t_(o-1).
    Unsnapped, float rounding gave such outcomes up to 1.5e-14 per trial."""
    bases = protocols._BBM92_BASES if len(noise) == 2 else protocols.BASIS_PAIRS[basis_pair]
    model = protocols._model(1, bases, protocols._live(noise)[1])
    for cum, kept, wrong in zip(model.tables.tolist(), model.kept, model.wrong):
        bounds = [0] + [min(math.ceil(c * 2**53), 2**53) for c in cum[:-1]] + [2**53]
        mass = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert not kept or all(m <= 0 for m, w in zip(mass, wrong) if w), (cum, wrong)


# Paths 0..3 occur in states; path 4 never does, so a pattern using it
# matches nothing.  An amplitude of 1e-160 puts a pattern that selects only
# such terms in the subnormal band.
labels = st.builds(BasisLabel, st.sampled_from([H, V]), st.sampled_from([W1, W2, None]), st.integers(0, 3))
amplitudes = st.one_of(
    st.just(1e-160),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)


# A failure of a property over the drawn states below is reported as drawn:
# shrinking one took 50-75 s, against about 1 s to find it.
unshrunk = settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


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


@unshrunk
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


# (an integer, a value of another type equal to it): True, 1.0, np.float64(1.0)
# and Fraction(1) equal, and hash as, 1, so a cache keyed by equality mixes them up
typed_twins = st.one_of(
    st.integers(0, 1).map(lambda v: (v, bool(v))),
    st.tuples(st.integers(0, 7), st.sampled_from([float, np.float64, Fraction])).map(
        lambda case: (case[0], case[1](case[0]))
    ),
)


def _eight_photons(frequency) -> PureState:
    return PureState(8, {tuple(BasisLabel(H, frequency, 5 * j + 3) for j in range(8)): 1.0})


def _projecting(state: PureState):
    """A call projecting state on photon j at path 5j + 3, for every j, with
    the index of photon x given as x; a stripped state holds that pattern's
    path index from the start."""
    return lambda x: project_paths(state, {(x if j == x else j): 5 * j + 3 for j in range(8)})


# each a maker of one call on a value x, on state it keeps for one example
TWIN_CALLS = {
    "wdm": lambda: lambda x: wdm(x, 100, 101),
    "fs": lambda: frequency_shifter,
    "hwp": lambda: half_wave_plate,
    "pbs": lambda: lambda x: pbs(100, 101, x, 102),
    "state label": lambda: lambda x: PureState(1, {((H, W1, x),): 1.0}),
    "project": lambda: _projecting(_eight_photons(W2)),
    "project stripped": lambda: _projecting(strip_frequency(_eight_photons(W2))),
}


def _failure(call, value):
    try:
        call(value)
    except ValueError as err:
        return str(err)
    return None


@given(typed_twins, st.sampled_from(sorted(TWIN_CALLS)))
def test_an_equal_value_of_another_type_fails_alike_once_its_twin_is_cached(twin, name):
    """An element path, a state label path or a photon index equal to a valid
    integer but of another type is a ValueError, the same one before and after
    the integer has filled the table cache, the label memo or the state's path
    index.  A stripped state's stored index once answered such a photon index."""
    value, other = twin
    elements._table.cache_clear()
    qstate._check_label.cache_clear()
    call = TWIN_CALLS[name]()
    before = _failure(call, other)
    assert before is not None and repr(other) in before
    call(value)
    assert _failure(call, other) == before


# Parts of amplitudes: signed zeros, ordinary values and magnitudes down to 1e-160.
parts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1.0, 1.0),
    st.floats(1e-160, 1e-150),
    st.floats(-1e-150, -1e-160),
)


def _state_and_bases(draw, n, terms):
    """A normalized state with the given terms of n photons, and a basis per photon."""
    amps = [complex(draw(st.floats(0.1, 1.0)), draw(parts))]
    amps += [complex(draw(parts), draw(parts)) for _ in terms[1:]]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    # part by part, so that a signed zero keeps its sign
    state = PureState(n, {t: complex(a.real / norm, a.imag / norm) for t, a in zip(terms, amps)})
    return state, draw(st.lists(st.sampled_from(["Z", "X", "Y"]), min_size=n, max_size=n))


@st.composite
def one_mode_states_and_bases(draw):
    """Each photon keeps one drawn frequency and path in every term: the
    terms differ only in polarization, as a measured state's do."""
    n = draw(st.integers(1, 4))
    mode = st.tuples(st.sampled_from([W1, W2, None]), st.integers(0, 3))
    modes = draw(st.lists(mode, min_size=n, max_size=n))
    photons = [st.sampled_from([H, V]).map(lambda pol, m=m: BasisLabel(pol, *m)) for m in modes]
    terms = draw(st.lists(st.tuples(*photons), min_size=1, max_size=8, unique=True))
    return _state_and_bases(draw, n, terms)


@st.composite
def states_and_bases(draw):
    """Each term draws each photon's whole label, so a photon may sit in
    more than one frequency or path across the terms."""
    n = draw(st.integers(1, 4))
    terms = draw(st.lists(st.tuples(*[labels] * n), min_size=1, max_size=8, unique=True))
    return _state_and_bases(draw, n, terms)


def assert_tables_equal_the_dict_spread(state, bases) -> None:
    """The outcome table equals the oracle's bit for bit from cold spread
    plans (the memo emptied first) and from the warm ones they leave."""
    oracle = joint_outcome_distribution_dict_spread(state, bases).view(np.uint64).tolist()
    protocols._spread_plan.cache_clear()
    for _ in ("cold", "warm"):
        table = protocols.joint_outcome_distribution(state, bases)
        assert table.view(np.uint64).tolist() == oracle


@unshrunk
@given(one_mode_states_and_bases())
def test_outcome_table_equals_the_dict_spread_bit_for_bit(case):
    assert_tables_equal_the_dict_spread(*case)


@unshrunk
@given(states_and_bases())
def test_a_photon_in_two_modes_has_no_outcome_table(case):
    """Terms that put one photon in two frequencies or paths cannot
    interfere, so such a state is a ValueError naming one such photon; a
    state with one mode per photon gives the dict spread's table."""
    state, bases = case
    modes = [{(label.frequency, label.path) for label in slot} for slot in zip(*state.amplitudes)]
    if all(len(m) == 1 for m in modes):
        assert_tables_equal_the_dict_spread(state, bases)
        return
    refusal = r"^photon \d+ is in a superposition of frequencies or paths$"
    with pytest.raises(ValueError, match=refusal) as err:
        protocols.joint_outcome_distribution(state, bases)
    assert len(modes[int(str(err.value).split()[1])]) > 1


@settings(max_examples=10)
@given(st.lists(noise, min_size=3, max_size=3))
def test_qss_outcome_tables_equal_the_dict_spread_bit_for_bit(params):
    """Every 3-photon basis combo of both QSS basis pairs, on every live
    pattern's conditional state, as qss_run builds its tables."""
    for outcome in run_distribution(*params):
        if outcome.probability > 0:
            for pair in qstate.BASIS_PAIRS.values():
                for combo in itertools.product(pair, repeat=3):
                    assert_tables_equal_the_dict_spread(outcome.conditional, combo)


def assert_as_if_checked(result: PureState) -> None:
    """A rebuilt state equals the public constructor's state on its own
    amplitudes, term for term in order, and holds only BasisLabels."""
    rebuilt = PureState(result.n_photons, dict(result.amplitudes))
    assert list(result.amplitudes.items()) == list(rebuilt.amplitudes.items())
    assert all(type(l) is BasisLabel for labels in result.amplitudes for l in labels)


def rotation(theta: float, phi: float, shift: int) -> ElementOp:
    """A polarization rotation that also moves the photon ``shift`` paths on,
    as an explicit table over paths 0-11: a drawn state's paths 0-3, moved
    on by at most 2 in each of at most 4 steps."""
    c, s = math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi))
    rules = {}
    for path in range(12):
        h, v = BasisLabel(H, None, path + shift), BasisLabel(V, None, path + shift)
        rules[BasisLabel(H, None, path)] = ((h, c), (v, s))
        rules[BasisLabel(V, None, path)] = ((h, -s.conjugate()), (v, c.conjugate()))
    return ElementOp("rotate", rules)


ops = st.one_of(
    st.builds(collective_noise, noise),
    st.builds(half_wave_plate, st.integers(0, 3)),
    st.builds(rotation, thetas, phis, st.integers(0, 2)),
)


@unshrunk
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
    assert_as_if_checked(strip_frequency(one_frequency_per_photon(state)))


def cancel(c: complex) -> ElementOp:
    """An op that writes +c, then -c, then 1 to one key per term: within one
    call the key sums to zero, is deleted and is written again.  The key's
    label is the input's with its polarization flipped.  The parts of c are
    at most 1 in size, so the column's rounded norm passes the isometry
    check."""
    h, v = BasisLabel(H, None, None), BasisLabel(V, None, None)
    return ElementOp("cancel", {h: ((v, c), (v, -c), (v, 1.0)), v: ((h, c), (h, -c), (h, 1.0))})


def hex_parts(amps) -> list:
    return [(a.real.hex(), a.imag.hex()) for a in amps.values()]


@unshrunk
@given(
    st.one_of(states_and_patterns(), states_and_bases()),
    st.lists(
        st.tuples(st.integers(0, 4), ops | st.builds(cancel, st.builds(complex, parts, parts))),
        min_size=1,
        max_size=4,
    ),
)
@example(  # a new key keeps the +0.0 that 0j + amp * coef gives
    (PureState(1, {(BasisLabel(V, W1, 0),): complex(1.0, -0.0)}), []),
    [(0, collective_noise(NoiseAngles(0.3, 0.0).to_params()))],
)
def test_apply_element_equals_the_two_lookup_oracle(case, steps):
    """apply_element writes the oracle's terms in its order, each part bit
    for bit, signed zeros included."""
    state = case[0]
    for photon, op in steps:
        photon %= state.n_photons
        want = apply_element_two_lookups(state, photon, op)
        state = apply_element(state, photon, op)
        assert list(state.amplitudes) == list(want)
        assert hex_parts(state.amplitudes) == hex_parts(want)


def one_frequency_per_photon(state: PureState) -> PureState:
    """state with photon i at w1 or w2 by the parity of i, so that it strips;
    the first of any terms that then coincide is kept, and the rest
    renormalized."""
    fixed: dict = {}
    for labels, amp in state.amplitudes.items():
        key = tuple(BasisLabel(l.polarization, (W1, W2)[i % 2], l.path) for i, l in enumerate(labels))
        fixed.setdefault(key, amp)
    peak = max(map(abs, fixed.values()))
    norm = math.sqrt(sum(abs(a / peak) ** 2 for a in fixed.values()))
    return PureState(state.n_photons, {k: a / peak / norm for k, a in fixed.items()})


def roundtrip(state: PureState) -> PureState:
    return pickle.loads(pickle.dumps(state))


def summed_norm(state: PureState) -> float:
    """The squared norm summed afresh, as the norm check sums it."""
    return sum([abs(a) ** 2 for a in state.amplitudes.values()])


@unshrunk
@given(
    st.one_of(states_and_patterns(), states_and_bases()),
    noise,
    st.integers(0, 4),
    st.integers(0, 3),
)
def test_every_state_keeps_the_norm_its_check_summed(case, channel, photon, path):
    """A drawn state, the states that collective noise, a half-wave plate,
    projection and a frequency strip make from it, and a shallow copy, a deep
    copy and a pickle round trip of each: norm_squared() is the fresh sum,
    and fidelity divides by the fresh sums, bit for bit."""
    state = case[0]
    photon %= state.n_photons
    made = [
        state,
        apply_element(state, photon, collective_noise(channel)),
        apply_element(state, photon, half_wave_plate(path)),
        strip_frequency(one_frequency_per_photon(state)),
    ]
    for labels in list(state.amplitudes)[:2]:  # a term's paths, of one photon and of all
        for pattern in ({photon: labels[photon].path}, {i: l.path for i, l in enumerate(labels)}):
            made += [cond for s in made[:3] if (cond := project_paths(s, pattern)[1])]
    clones = [clone(s) for s in made for clone in (copy.copy, copy.deepcopy, roundtrip)]
    for s in made + clones:
        assert s.norm_squared().hex() == summed_norm(s).hex()
        for r in made:
            want = abs(inner_product(r, s)) ** 2 / (summed_norm(s) * summed_norm(r))
            assert fidelity(s, r).hex() == want.hex()


@unshrunk
@given(states_and_patterns())
def test_strip_stores_the_index_a_rebuild_gives(case):
    """strip_frequency stores the all-photon path index _terms_on_paths builds
    on an index-free copy of its result: the same keys, groups and term order;
    and every pattern, drawn or on all photons, projects to the same bits on
    both states."""
    state, patterns = case
    stripped = strip_frequency(one_frequency_per_photon(state))
    plain = copy.copy(stripped)
    photons = tuple(range(stripped.n_photons))
    assert list(stripped._by_paths) == [photons] and plain._by_paths == {}
    stored = stripped._by_paths[photons]
    rebuilt = qstate._terms_on_paths(plain, photons)
    assert list(stored) == list(rebuilt)
    for paths, group in stored.items():
        assert list(group.items()) == list(rebuilt[paths].items())
    every_photon = [{i: l.path for i, l in enumerate(labels)} for labels in stripped.amplitudes]
    for pattern in patterns + every_photon:
        prob, cond = project_paths(stripped, pattern)
        want_prob, want_cond = project_paths(plain, pattern)
        assert prob.hex() == want_prob.hex()
        if want_cond is None:
            assert cond is None
        else:
            assert list(cond.amplitudes) == list(want_cond.amplitudes)
            assert hex_parts(cond.amplitudes) == hex_parts(want_cond.amplitudes)


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
    and w >= 2**63 exactly when it reaches 0.5; rng.sample counts on the word,
    and draws the basis bit from the row [0.5, 1.0]."""
    w, c = case
    with mock.patch.object(rng, "words", lambda seed, trials, draw: np.array([w], dtype=np.uint64)):
        u = float(rng.uniforms(0, 0, 0)[0])
        keys = rng.TrialKeys(0, 0)
        drawn = rng.sample(keys, 0, np.array([[c, 1.0]]))
        bit = rng.sample(keys, 0, protocols._FAIR_BIT)
    assert ((w >> 11) >= math.ceil(c * 2**53)) == (u >= c)
    assert (w >= 2**63) == (u >= 0.5)
    assert drawn.tolist() == [int(u >= c)]
    assert bit.tolist() == [int(u >= 0.5)]


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


oracle_leaves = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.integers(),
    st.integers(min_value=2**64) | st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
oracle_values = st.recursive(
    oracle_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


class Name(str):
    """A str subclass, as a caller's port names may be."""


@example(["a", 1])
@example([1, "a"])
@example(["a", ["b"]])
@example(["a", True, None, 2.5])
@example((Name("a1"), Name("b2")))
@example({"pattern": (Name("a1"), "b2"), Name("key"): Name("value")})
@example(["\u00e9", "\u03c0", "\u2603", "\U0001f600", "tab\tquote\"back\\"])
@example({"\u03b8": "\u00e9t\u00e9", "noise": [{"\u03c6": 1.0}]})
@example([np.float64(0.1), np.float64(1.0), np.float64(5e-324), np.float64("nan"), np.float64(1e11)])
@example({"probability": np.float64(1 / 3), "fidelity": np.float64(-0.0)})
@given(oracle_values)
def test_dump_json_matches_the_two_pass_oracle(value):
    """The one-pass writer gives json.dumps's text of the rounded value, byte
    for byte: NaN as null, infinities, -0.0, big ints, non-ASCII text, tuples
    and empty containers included; so do the examples, lists of str and
    non-str items, str subclasses in a tuple and as keys, and numpy.float64
    leaves."""
    assert _dump_json(value) == dump_json_two_pass(value)


@example(5e-324)
@example(sys.float_info.min)
@example(math.nextafter(sys.float_info.min, 0.0))
@example(1e11)
@example(math.nextafter(1e11, 0.0))
@example(math.nextafter(1e11, math.inf))
@example(99999999999.99999)
@example(999999999999.5)
@example(1e12)
@example(1e16)
@example(0.0)
@example(-0.0)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.floats(1e10, 1e13) | st.floats(0.0, 1e-300))
def test_json_float_is_the_text_of_the_rounded_value(x):
    """For every finite x of either sign, the text is float.__repr__ of x
    rounded to 12 significant digits, the fast path for normal |x| < 1e11
    included."""
    for v in (x, -x):
        assert _json_float(v) == float.__repr__(float(format(v, ".12g")))
