import hashlib
import itertools
import math
import re
import types

import numpy as np
import pytest

import entdist
from conftest import check_record_form, random_noise, single_photon
from entdist import distribution, protocols, qstate
from entdist.distribution import (
    build_pipeline,
    correction_flips,
    ghz_state,
    run_distribution,
    run_distribution_mixed,
    source_state,
)
from entdist.elements import MixedNoiseWeights, NoiseAngles, NoiseParams
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
from oracles import TWO_PARTY_REFERENCES, analytic_outcomes, bell_state

S = 1 / math.sqrt(2)


def lab(pol, freq, path):
    return BasisLabel(pol, freq, path)


def run_pipeline(state, party, noise):
    for op in build_pipeline(party, noise):
        state = apply_element(state, party, op)
    return state


class TestSourceState:
    def test_two_party_form(self):
        state = source_state((0, 1))
        assert state.amplitudes.get((lab(H, W1, 0), lab(H, W2, 1)), 0j) == pytest.approx(S)
        assert state.amplitudes.get((lab(H, W2, 0), lab(H, W1, 1)), 0j) == pytest.approx(S)
        assert len(state.amplitudes) == 2

    def test_three_party_frequency_patterns(self):
        state = source_state((0, 1, 2))
        assert state.amplitudes.get((lab(H, W1, 0), lab(H, W1, 1), lab(H, W2, 2)), 0j) == pytest.approx(S)
        assert state.amplitudes.get((lab(H, W2, 0), lab(H, W2, 1), lab(H, W1, 2)), 0j) == pytest.approx(S)
        assert len(state.amplitudes) == 2

    def test_normalized_for_all_sizes(self):
        for n in range(2, 7):
            assert source_state(range(n)).norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError, match="at least 2"):
            source_state((0,))

    @pytest.mark.parametrize(
        "build, name, paths",
        [(source_state, "paths", [0, 0]), (source_state, "paths", [0, -1]),
         (ghz_state, "ports", [3, 3]), (ghz_state, "ports", (-5, 1))],
    )
    def test_rejects_two_photons_on_a_path_or_a_negative_path(self, build, name, paths):
        """One photon per path, on paths port_name can name: these built states before."""
        message = f"{name} must be distinct and >= 0 (one photon per path), got {list(paths)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(paths)


class TestStateAfterNoise:
    def test_matches_expanded_form(self, rand):
        """Source through both noise channels equals the written-out
        post-noise expansion (coefficient products on all eight kets)."""
        pa, pb = random_noise(rand), random_noise(rand)
        sa, sb = distribution._party_paths(0)[0], distribution._party_paths(1)[0]
        state = source_state((sa, sb))
        from entdist.elements import collective_noise

        state = apply_element(state, 0, collective_noise(pa))
        state = apply_element(state, 1, collective_noise(pb))

        a, b, d, g = pa.alpha, pa.beta, pb.alpha, pb.beta
        expected = {}
        for (pol_a, ca), (pol_b, cb) in itertools.product(
            ((H, a), (V, b)), ((H, d), (V, g))
        ):
            expected[(lab(pol_a, W1, sa), lab(pol_b, W2, sb))] = ca * cb * S
            expected[(lab(pol_a, W2, sa), lab(pol_b, W1, sb))] = ca * cb * S
        assert set(state.amplitudes) == set(expected)
        for key, amp in expected.items():
            assert state.amplitudes.get(key, 0j) == pytest.approx(amp, abs=1e-12)


class TestPipeline:
    def test_identity_noise_traces(self):
        """Single-photon routing through one party's full chain; verified by
        tracing the five element rules (and consistent with the post-PBS
        expansion, which puts V-from-lower on out1)."""
        source, _, _, out1, out2 = distribution._party_paths(0)
        cases = [
            ((H, W1), (H, W2, out1)),
            ((V, W1), (V, W2, out2)),
            ((H, W2), (V, W2, out1)),
            ((V, W2), (H, W2, out2)),
        ]
        for (pol, freq), expected in cases:
            out = run_pipeline(single_photon(pol, freq, source), 0, NoiseParams.identity())
            assert out.amplitudes.get((lab(*expected),), 0j) == pytest.approx(1.0)
            assert len(out.amplitudes) == 1

    def test_a_negative_party_or_path_is_refused(self):
        with pytest.raises(ValueError, match="party must be >= 0, got -1"):
            build_pipeline(-1, NoiseParams.identity())
        for path in (-1, -5):
            with pytest.raises(ValueError, match=f"path must be >= 0, got {path}"):
                distribution.port_name(path)

    def test_parties_past_z_have_no_port_name(self):
        """Path 130 was named "{:src", the character after z."""
        assert distribution.port_name(129) == "z2"
        for path in (130, 133):
            message = rf"path must be < 130 \(parties a to z\), got {path}"
            with pytest.raises(ValueError, match=message):
                distribution.port_name(path)

    def test_each_party_names_its_own_five_ports(self):
        """Party j's chain names exactly its five ports: src, up, lo, 1, 2 in path order."""
        for j, letter in enumerate("abcdefgh"):
            paths = {
                label.path
                for op in build_pipeline(j, NoiseParams.identity())
                for pattern, outs in op.rules.items()
                for label in (pattern, *(out for out, _ in outs))
                if label.path is not None
            }
            names = [distribution.port_name(p) for p in sorted(paths)]
            assert names == [letter + suffix for suffix in (":src", ":up", ":lo", "1", "2")]

    def test_pipeline_is_isometry(self, rand):
        noise, source = random_noise(rand), distribution._party_paths(0)[0]
        for _ in range(20):
            amps = rand.normal(size=4) + 1j * rand.normal(size=4)
            amps /= np.linalg.norm(amps)
            state = PureState(
                1,
                {
                    (lab(pol, freq, source),): amp
                    for (pol, freq), amp in zip(
                        itertools.product((H, V), (W1, W2)), amps
                    )
                },
            )
            out = run_pipeline(state, 0, noise)
            assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


class TestRunDistribution:
    def test_probabilities_and_states(self, rand):
        pa, pb = random_noise(rand), random_noise(rand)
        outcomes = run_distribution(pa, pb)
        a, b, d, g = pa.alpha, pa.beta, pb.alpha, pb.beta
        expected = [
            ((1, 1), abs(a * d) ** 2, "psi_plus"),
            ((1, 2), abs(a * g) ** 2, "phi_plus"),
            ((2, 1), abs(b * d) ** 2, "phi_plus"),
            ((2, 2), abs(b * g) ** 2, "psi_plus"),
        ]
        assert [o.slots for o in outcomes] == [e[0] for e in expected]
        for outcome, (_, prob, ref) in zip(outcomes, expected):
            assert outcome.probability == pytest.approx(prob, abs=1e-12)
            assert outcome.reference == ref
            assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_identity_noise_single_outcome(self):
        outcomes = run_distribution(NoiseParams.identity(), NoiseParams.identity())
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
        for o in outcomes[1:]:
            assert o.probability == 0.0
            assert o.conditional is None
            assert o.fidelity is None

    def test_balanced_noise_uniform_outcomes(self):
        p = NoiseParams(S, S)
        for o in run_distribution(p, p):
            assert o.probability == pytest.approx(0.25, abs=1e-12)

    def test_completeness_over_random_noise(self, rand):
        for _ in range(300):
            outcomes = run_distribution(random_noise(rand), random_noise(rand))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_conditionals_carry_output_ports(self, rand):
        outcomes = run_distribution(random_noise(rand), random_noise(rand))
        for o in outcomes:
            assert o.pattern_names in (
                ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")
            )
            for labels in o.conditional.amplitudes:
                assert tuple(l.path for l in labels) == o.pattern


class TestAnalyticOracle:
    def test_coefficients(self):
        pa, pb = NoiseParams(0.6, 0.8), NoiseParams(0.28, 0.96)
        rows = analytic_outcomes(pa, pb)
        assert [r.coefficient for r in rows] == pytest.approx(
            [0.6 * 0.28, 0.6 * 0.96, 0.8 * 0.28, 0.8 * 0.96]
        )
        assert [r.reference for r in rows] == ["psi_plus", "phi_plus", "phi_plus", "psi_plus"]

    def test_alpha_zero_kills_first_rows(self):
        rows = analytic_outcomes(NoiseParams(0.0, 1.0), NoiseParams(0.6, 0.8))
        assert rows[0].coefficient == 0 and rows[1].coefficient == 0

    def test_engine_amplitudes_match_coefficients(self, rand):
        """Engine term amplitudes equal analytic coefficient times the
        reference Bell amplitude, term by term (same phase convention)."""
        for _ in range(200):
            pa, pb = random_noise(rand), random_noise(rand)
            outcomes = run_distribution(pa, pb)
            rows = analytic_outcomes(pa, pb)
            for outcome, row in zip(outcomes, rows):
                assert outcome.probability == pytest.approx(row.probability, abs=1e-12)
                if outcome.conditional is None:
                    continue
                ref = bell_state(row.reference, *outcome.pattern)
                scale = math.sqrt(outcome.probability)
                for labels, ref_amp in ref.amplitudes.items():
                    engine_amp = outcome.conditional.amplitudes.get(labels, 0j) * scale
                    assert engine_amp == pytest.approx(
                        row.coefficient * ref_amp, abs=1e-12
                    )


class TestMixedDistribution:
    @pytest.mark.parametrize("weights", [(2.0, -1.0, 0.0, 0.0), [0.25] * 4, None, NoiseParams(1.0, 0.0)])
    def test_weights_that_are_not_mixed_noise_weights_are_a_type_error(self, weights):
        message = f"weights must be MixedNoiseWeights, got {weights!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            run_distribution_mixed(weights)

    def test_deterministic_weight_routes_to_one_pattern(self):
        outcomes = run_distribution_mixed(MixedNoiseWeights(1.0, 0.0, 0.0, 0.0))
        assert outcomes[0].slots == (1, 1)
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
        assert outcomes[0].fidelity == pytest.approx(1.0, abs=1e-12)
        assert all(o.probability == 0.0 for o in outcomes[1:])

    def test_weights_map_to_patterns_in_order(self):
        w = MixedNoiseWeights(0.1, 0.2, 0.3, 0.4)
        outcomes = run_distribution_mixed(w)
        assert [o.probability for o in outcomes] == pytest.approx(
            [0.1, 0.2, 0.3, 0.4], abs=1e-12
        )
        assert [o.reference for o in outcomes] == [
            "psi_plus", "phi_plus", "phi_plus", "psi_plus"
        ]

    def test_uniform_weights_total_one(self):
        outcomes = run_distribution_mixed(MixedNoiseWeights(0.25, 0.25, 0.25, 0.25))
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_conditionals_match_pure_noise_case(self, rand):
        for _ in range(25):
            raw = rand.uniform(0.05, 1.0, size=4)
            raw /= raw.sum()
            mixed = run_distribution_mixed(MixedNoiseWeights(*raw))
            pure = run_distribution(random_noise(rand), random_noise(rand))
            for om, op_ in zip(mixed, pure):
                assert om.slots == op_.slots
                assert fidelity(om.conditional, op_.conditional) == pytest.approx(
                    1.0, abs=1e-12
                )


class TestOneStrip:
    """Every photon leaves its party at w2, so a run strips the frequency from
    its final state once, not from each pattern's conditional."""

    def count_strips(self, monkeypatch) -> list[int]:
        """Terms of each state distribution strips, from here on."""
        calls = []

        def counting(state):
            calls.append(len(state.amplitudes))
            return strip_frequency(state)

        monkeypatch.setattr(distribution, "strip_frequency", counting)
        return calls

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_a_run_strips_its_final_state_once(self, monkeypatch, rand, n):
        calls = self.count_strips(monkeypatch)
        outcomes = run_distribution(*(random_noise(rand) for _ in range(n)))
        # all 2^n patterns are live, each with a two-term conditional
        assert calls == [2 ** (n + 1)]
        assert all(
            lab.frequency is None
            for o in outcomes
            for labels in o.conditional.amplitudes
            for lab in labels
        )

    def test_a_mixture_strips_once_per_nonzero_weight(self, monkeypatch):
        calls = self.count_strips(monkeypatch)
        run_distribution_mixed(MixedNoiseWeights(0.5, 0.0, 0.25, 0.25))
        # each component routes to one pattern: a two-term final state
        assert calls == [2, 2, 2]


class TestOnePassIndex:
    """strip_frequency builds the final state's all-photon path index in its
    pass over the terms, so a run's projections scan no term again and check
    no photon index: every pattern is one memo lookup."""

    def test_a_warm_run_projects_without_building_an_index(self, monkeypatch, rand):
        noise = [random_noise(rand) for _ in range(8)]
        run_distribution(*noise)  # warm: the circuit's patterns and references are memoized
        builds, checks, projecting = [], [], []
        build, check = qstate._terms_on_paths, qstate._check_photon_index

        def counting_build(state, photons):
            builds.append(photons)
            return build(state, photons)

        def counting_check(state, photon_index):
            checks.append(bool(projecting))
            check(state, photon_index)

        def projecting_once(state, pattern):
            projecting.append(pattern)
            try:
                return project_paths(state, pattern)
            finally:
                projecting.pop()

        monkeypatch.setattr(qstate, "_terms_on_paths", counting_build)
        monkeypatch.setattr(qstate, "_check_photon_index", counting_check)
        monkeypatch.setattr(distribution, "project_paths", projecting_once)
        assert len(run_distribution(*noise)) == 256
        assert builds == [] and checks == [False] * 40  # only the 40 element calls check
        # a state without the stored index builds one, and checks each of its photons
        project_paths(source_state([0, 5]), {0: 0, 1: 5})
        assert builds == [(0, 1)] and checks[40:] == [False, False]


class TestCircuitMemo:
    """A circuit's port patterns and GHZ references do not depend on the
    noise, so they are derived once per circuit."""

    def test_a_second_run_builds_no_reference(self, monkeypatch, rand):
        built = []

        def counting(ports, flips=()):
            built.append(ports)
            return ghz_state(ports, flips)

        monkeypatch.setattr(distribution, "ghz_state", counting)
        distribution._port_patterns.cache_clear()
        first = run_distribution(*(random_noise(rand) for _ in range(3)))
        assert len(built) == 8
        second = run_distribution(*(random_noise(rand) for _ in range(3)))
        assert len(built) == 8
        assert [o.pattern for o in second] == [o.pattern for o in first] == built
        for o in second:
            assert o.fidelity == fidelity(o.conditional, ghz_state(o.pattern, o.flips))

    @pytest.mark.parametrize("n_parties", [2, 3, 8])
    def test_each_port_map_is_read_only_and_maps_photons_to_ports(self, n_parties):
        for ports, *_, port_map in distribution._port_patterns(n_parties):
            assert port_map == dict(enumerate(ports))
            with pytest.raises(TypeError):
                port_map[0] = ports[-1]

    def test_a_run_projects_on_the_memoized_port_maps(self, monkeypatch, rand):
        projected = []

        def recording(state, pattern):
            projected.append(pattern)
            return project_paths(state, pattern)

        monkeypatch.setattr(distribution, "project_paths", recording)
        run_distribution(*(random_noise(rand) for _ in range(3)))
        memo = [pattern[-1] for pattern in distribution._port_patterns(3)]
        assert len(projected) == len(memo) == 8
        assert all(used is kept for used, kept in zip(projected, memo))

    def test_patterns_cache_is_bounded(self):
        bound = distribution._port_patterns.cache_info().maxsize
        assert bound == distribution._CIRCUITS_MAX
        for n_parties in range(1, bound + 6):
            distribution._port_patterns(n_parties)
        assert distribution._port_patterns.cache_info().currsize <= bound


def steering_noise(slot: int) -> NoiseParams:
    """Deterministic noise that forces a party out a chosen port: identity
    keeps H (port 1), a full flip sends it to V (port 2)."""
    return NoiseParams.identity() if slot == 1 else NoiseParams(0.0, 1.0)


class TestNParty:
    def test_identity_noise_gives_ghz(self):
        outcomes = run_distribution(*[NoiseParams.identity()] * 3)
        assert outcomes[0].slots == (1, 1, 1)
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
        assert outcomes[0].fidelity == pytest.approx(1.0, abs=1e-12)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_noise_uniform_patterns(self):
        outcomes = run_distribution(*[NoiseParams(S, S)] * 3)
        assert len(outcomes) == 8
        for o in outcomes:
            assert o.probability == pytest.approx(1 / 8, abs=1e-12)
            assert o.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_random_noise_sums_to_one(self, rand):
        for n in (3, 4, 5):
            for _ in range(20):
                outcomes = run_distribution(*[random_noise(rand) for _ in range(n)])
                assert sum(o.probability for o in outcomes) == pytest.approx(
                    1.0, abs=1e-12
                )
                for o in outcomes:
                    assert o.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_are_coefficient_products(self, rand):
        noise = [random_noise(rand) for _ in range(3)]
        outcomes = run_distribution(*noise)
        for o in outcomes:
            expected = 1.0
            for slot, p in zip(o.slots, noise):
                expected *= abs(p.alpha if slot == 1 else p.beta) ** 2
            assert o.probability == pytest.approx(expected, abs=1e-12)

    def test_rejects_fewer_than_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_distribution(NoiseParams.identity())

    def test_references_validated_by_steering_oracle(self):
        """Drive all probability onto each pattern with deterministic noise;
        the conditional reached that way must equal the stored per-pattern
        reference.  This pins the flip rule to the circuit, not to itself."""
        for n in (3, 4):
            for slots in itertools.product((1, 2), repeat=n):
                outcomes = run_distribution(*[steering_noise(s) for s in slots])
                (hit,) = [o for o in outcomes if o.probability > 1e-12]
                assert hit.slots == slots
                assert hit.probability == pytest.approx(1.0, abs=1e-12)
                ref = ghz_state(hit.pattern, correction_flips(slots))
                assert fidelity(hit.conditional, ref) == pytest.approx(1.0, abs=1e-12)

    def test_two_party_flip_rule_agrees_with_fixed_table(self):
        """The N-party flip rule specializes to the fixed (psi+, phi+,
        phi+, psi+) table on two parties."""
        ports = (10, 11)
        for slots, bell in TWO_PARTY_REFERENCES.items():
            assert ghz_state(ports, correction_flips(slots)) == bell_state(bell, *ports)


class TestCorrection:
    def test_correction_flips_turn_conditionals_into_ghz(self, rand):
        """Each outcome carries its pattern's flips, and its conditional is
        the GHZ state with those parties flipped."""
        noise = [random_noise(rand) for _ in range(3)]
        outcomes = run_distribution(*noise)
        for o in outcomes:
            assert o.flips == correction_flips(o.slots)
            assert fidelity(o.conditional, ghz_state(o.pattern, o.flips)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_flip_sets(self):
        assert correction_flips((1, 1)) == (1,)
        assert correction_flips((1, 2)) == ()
        assert correction_flips((2, 2)) == (0,)
        assert correction_flips((1, 2, 1)) == (1, 2)
        assert correction_flips((2, 2, 2)) == (0, 1)

    @pytest.mark.parametrize("slots", [(), (1, 1, 7), (0, 1), (1, None), (1, [2])])
    def test_slots_that_are_not_1_or_2_per_party_are_a_value_error(self, slots):
        message = f"slots must be 1 or 2 per party, got {list(slots)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            correction_flips(slots)

    @pytest.mark.parametrize("flips", [(5,), (2,), (0, -1), ([0],)])
    def test_a_flip_outside_the_parties_is_a_value_error(self, flips):
        message = f"flips must be party indices in [0, 2), got {list(flips)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ghz_state((0, 1), flips)


def _outcome_digest(runs) -> str:
    """sha256 over every field of every outcome, floats as exact hex."""
    h = hashlib.sha256()
    for outcomes in runs:
        for o in outcomes:
            fid = None if o.fidelity is None else o.fidelity.hex()
            fields = (o.pattern, o.pattern_names, o.slots, o.probability.hex(), fid, o.reference)
            h.update(repr(fields).encode())
            if o.conditional is not None:
                terms = sorted(
                    o.conditional.amplitudes.items(),
                    key=lambda kv: [(l.polarization, l.path) for l in kv[0]],
                )
                for labels, amp in terms:
                    kets = [(l.polarization, l.path) for l in labels]
                    h.update(repr((kets, amp.real.hex(), amp.imag.hex())).encode())
        h.update(b"|")
    return h.hexdigest()


def _pinned_noise(rand: np.random.Generator, n: int) -> list[NoiseParams]:
    """Random angles with theta pinned to 0 or pi/2 a quarter of the time each."""
    noise = []
    for _ in range(n):
        inner = rand.uniform(0.0, math.pi / 2, size=2)
        theta = rand.choice([0.0, math.pi / 2, *inner])
        noise.append(NoiseAngles(float(theta), float(rand.uniform(0.0, 2 * math.pi))).to_params())
    return noise


def _pinned_weights(rand: np.random.Generator) -> MixedNoiseWeights:
    """Random mixture weights with each weight zeroed half the time (never all four)."""
    raw = rand.uniform(0.05, 1.0, size=4) * (rand.uniform(size=4) < 0.5)
    if not raw.any():
        raw[rand.integers(4)] = 1.0
    return MixedNoiseWeights(*(float(x) for x in raw / raw.sum()))


PURE_DIGEST = "0490224174edc9c2f6dfeb28ec34dedb97103913149d6cc3667b8d9893b830ff"
MIXED_DIGEST = "1604e5655ebe95e130fcf1e41d31f0a09d85894b15b51bea19ddcebd288ad074"


class TestOutcomePins:
    """Bit-for-bit pins of the distribution outcomes, recorded before path
    numbering was fixed and mixtures became weighted pure runs."""

    def test_pure_noise_digest(self):
        rand = np.random.default_rng(6060)
        runs = [
            run_distribution(*_pinned_noise(rand, n)) for n in (2, 3, 4, 5) for _ in range(24)
        ]
        assert _outcome_digest(runs) == PURE_DIGEST

    def test_mixed_noise_digest(self):
        rand = np.random.default_rng(6061)
        runs = [run_distribution_mixed(_pinned_weights(rand)) for _ in range(60)]
        runs += [run_distribution_mixed(MixedNoiseWeights(*w)) for w in np.eye(4).tolist()]
        assert _outcome_digest(runs) == MIXED_DIGEST


@pytest.mark.parametrize(
    "make, fields",
    [
        (
            lambda: run_distribution(NoiseParams.identity(), NoiseParams.identity())[0],
            ("pattern", "pattern_names", "slots", "probability", "conditional", "reference",
             "fidelity", "flips"),
        ),
    ],
    ids=["DistributionOutcome"],
)
def test_record_form(make, fields):
    """Each distribution record is immutable, with its fields in their old order."""
    check_record_form(make(), fields)


def test_import_star_binds_no_submodule():
    """import * binds the public names, not the submodules they come from."""
    assert entdist.__all__ and not [
        name for name in entdist.__all__ if isinstance(getattr(entdist, name), types.ModuleType)
    ]
    names = {}
    exec("from entdist import *", names)
    assert "qstate" not in names and "run_distribution" in names


def test_protocol_names_are_the_protocol_objects():
    """The Monte-Carlo names the package loads on first use are protocols' own."""
    assert entdist.bbm92_run is protocols.bbm92_run
    for name in entdist.__all__:
        if hasattr(protocols, name):
            assert getattr(entdist, name) is getattr(protocols, name), name
