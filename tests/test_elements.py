import cmath
import copy
import math
import pickle

import numpy as np
import pytest

from conftest import (
    check_record_form,
    random_noise,
    random_state,
    single_photon,
    single_photon_labels,
)
from entdist import elements
from entdist.elements import (
    ElementOp,
    MixedNoiseWeights,
    NoiseAngles,
    NoiseParams,
    UndefinedInputError,
    collective_noise,
    frequency_shifter,
    half_wave_plate,
    pbs,
    wdm,
)
from entdist.distribution import run_distribution, run_distribution_mixed, source_state
from entdist.qstate import (
    BasisLabel,
    H,
    PureState,
    V,
    W1,
    W2,
    apply_element,
)

S = 1 / math.sqrt(2)


def lab(pol, freq, path):
    return BasisLabel(pol, freq, path)


class TestNoiseParams:
    def test_rejects_unnormalized(self):
        for alpha, beta in ((1.0, 1.0), (float("nan"), 0.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="expected 1"):
                NoiseParams(alpha, beta)

    def test_angles_map_to_params(self):
        angles = NoiseAngles(0.7, 1.3)
        p = angles.to_params()
        assert p.alpha == pytest.approx(math.cos(0.7))
        assert p.beta == pytest.approx(cmath.exp(1.3j) * math.sin(0.7))

    def test_angle_ranges(self):
        with pytest.raises(ValueError, match="theta"):
            NoiseAngles(-0.1)
        with pytest.raises(ValueError, match="theta"):
            NoiseAngles(math.pi)
        with pytest.raises(ValueError, match="phi"):
            NoiseAngles(0.3, -1.0)
        with pytest.raises(ValueError, match="phi"):
            NoiseAngles(0.3, 2 * math.pi)


class TestCollectiveNoise:
    def test_identity_params_give_identity(self):
        op = collective_noise(NoiseParams(1.0, 0.0))
        for pol, freq in ((H, W1), (V, W2)):
            state = single_photon(pol, freq, 3)
            assert apply_element(state, 0, op) == state

    def test_action_on_h(self):
        op = collective_noise(NoiseParams(0.6, 0.8j))
        out = apply_element(single_photon(H, W1, 0), 0, op)
        assert out.amplitudes.get((lab(H, W1, 0),), 0j) == pytest.approx(0.6)
        assert out.amplitudes.get((lab(V, W1, 0),), 0j) == pytest.approx(0.8j)

    def test_full_flip_squares_to_minus_identity(self):
        # oracle: [[0,-1],[1,0]]^2 = -I, a pure global phase
        op = collective_noise(NoiseParams(0.0, 1.0))
        h_out = apply_element(apply_element(single_photon(H, W1, 0), 0, op), 0, op)
        assert h_out.amplitudes.get((lab(H, W1, 0),), 0j) == pytest.approx(-1.0)
        v_out = apply_element(apply_element(single_photon(V, W1, 0), 0, op), 0, op)
        assert v_out.amplitudes.get((lab(V, W1, 0),), 0j) == pytest.approx(-1.0)

    def test_same_action_for_both_frequencies_and_paths(self, rand):
        p = random_noise(rand)
        op = collective_noise(p)
        for freq in (W1, W2):
            for path in (0, 7):
                out = apply_element(single_photon(H, freq, path), 0, op)
                assert out.amplitudes.get((lab(H, freq, path),), 0j) == pytest.approx(p.alpha)
                assert out.amplitudes.get((lab(V, freq, path),), 0j) == pytest.approx(p.beta)


class TestWdm:
    def test_routes_by_frequency(self):
        op = wdm(0, 1, 2)
        out = apply_element(single_photon(V, W1, 0), 0, op)
        assert out.amplitudes.get((lab(V, W1, 1),), 0j) == 1.0
        out = apply_element(single_photon(H, W2, 0), 0, op)
        assert out.amplitudes.get((lab(H, W2, 2),), 0j) == 1.0

    def test_linear_on_frequency_superposition(self):
        op = wdm(0, 1, 2)
        state = PureState(1, {(lab(H, W1, 0),): S, (lab(H, W2, 0),): S})
        out = apply_element(state, 0, op)
        assert out.amplitudes.get((lab(H, W1, 1),), 0j) == pytest.approx(S)
        assert out.amplitudes.get((lab(H, W2, 2),), 0j) == pytest.approx(S)

    def test_distinct_paths_required(self):
        with pytest.raises(ValueError, match="distinct"):
            wdm(0, 0, 1)

    def test_undefined_off_input_path(self):
        op = wdm(0, 1, 2)
        with pytest.raises(UndefinedInputError, match="wdm"):
            apply_element(single_photon(H, W1, 5), 0, op)


class TestFrequencyShifter:
    def test_shifts_w1_to_w2(self):
        out = apply_element(single_photon(H, W1, 4), 0, frequency_shifter(4))
        assert out.amplitudes.get((lab(H, W2, 4),), 0j) == 1.0

    def test_w2_fixed_point(self):
        state = single_photon(V, W2, 4)
        assert apply_element(state, 0, frequency_shifter(4)) == state

    def test_off_path_identity(self):
        state = single_photon(H, W1, 9)
        assert apply_element(state, 0, frequency_shifter(4)) == state


class TestHalfWavePlate:
    def test_flips_h_and_v(self):
        op = half_wave_plate(2)
        assert apply_element(single_photon(H, W2, 2), 0, op) == single_photon(V, W2, 2)
        assert apply_element(single_photon(V, W2, 2), 0, op) == single_photon(H, W2, 2)

    def test_involution(self, rand):
        state = random_state(rand, single_photon_labels(2))
        op = half_wave_plate(2)
        assert apply_element(apply_element(state, 0, op), 0, op) == state

    def test_path_locality(self, rand):
        state = random_state(rand, single_photon_labels(0))
        assert apply_element(state, 0, half_wave_plate(3)) == state


class TestRuntimeLabels:
    def test_runtime_strings_act_as_the_constants(self):
        """Labels compare by value: a frequency string built at run time is a
        different object from W1 and still routes, shifts and flips like it."""
        freq = "".join(["w", "1"])
        assert freq is not W1
        built, const = single_photon("".join(["H"]), freq, 0), single_photon(H, W1, 0)
        for op in (wdm(0, 1, 2), frequency_shifter(1), half_wave_plate(1)):
            built, const = apply_element(built, 0, op), apply_element(const, 0, op)
            assert built == const
        assert const == single_photon(V, W2, 1)


class TestPbs:
    def test_routing_convention(self):
        op = pbs(0, 1, 2, 3)
        cases = [
            ((H, 0), (H, 2)),  # H from upper transmits to out1
            ((V, 0), (V, 3)),  # V from upper reflects to out2
            ((V, 1), (V, 2)),  # V from lower reflects to out1
            ((H, 1), (H, 3)),  # H from lower transmits to out2
        ]
        for (pol_in, path_in), (pol_out, path_out) in cases:
            out = apply_element(single_photon(pol_in, W2, path_in), 0, op)
            assert out.amplitudes.get((lab(pol_out, W2, path_out),), 0j) == 1.0

    def test_covers_all_inputs_and_partitions_outputs(self):
        op = pbs(0, 1, 2, 3)
        images = set()
        for pol in (H, V):
            for path in (0, 1):
                outs = op.expand(lab(pol, W2, path))
                assert len(outs) == 1
                images.add((outs[0][0].polarization, outs[0][0].path))
        assert images == {(H, 2), (V, 3), (V, 2), (H, 3)}

    def test_distinct_paths_required(self):
        with pytest.raises(ValueError, match="distinct"):
            pbs(0, 1, 2, 2)


class TestExpandMemo:
    def test_repeated_calls_return_equal_tuples(self):
        op = collective_noise(NoiseParams(0.6, 0.8))
        first = op.expand(lab(H, W1, 3))
        assert first == ((lab(H, W1, 3), 0.6 + 0j), (lab(V, W1, 3), 0.8 + 0j))
        assert op.expand(lab(H, W1, 3)) == first
        assert op.expand(lab(H, W1, 4)) == ((lab(H, W1, 4), 0.6 + 0j), (lab(V, W1, 4), 0.8 + 0j))

    def test_passthrough_is_a_tuple_too(self):
        op = half_wave_plate(1)
        assert op.expand(lab(H, W1, 0)) == op.expand(lab(H, W1, 0)) == ((lab(H, W1, 0), 1 + 0j),)

    def test_passthrough_maps_an_unmatched_label_to_itself(self):
        rules = {lab(H, None, 1): ((lab(V, None, 1), 1.0),),
                 lab(V, None, 1): ((lab(H, None, 1), 1.0),)}
        strict, through = ElementOp("hwp", rules), ElementOp("hwp", rules, passthrough=True)
        assert through.rules == strict.rules
        assert through.expand(lab(H, W1, 1)) == strict.expand(lab(H, W1, 1))
        assert through.expand(lab(H, W1, 0)) == ((lab(H, W1, 0), 1 + 0j),)
        with pytest.raises(UndefinedInputError):
            strict.expand(lab(H, W1, 0))

    def test_undefined_input_raises_on_every_call(self):
        op = wdm(0, 1, 2)
        for _ in range(3):
            with pytest.raises(UndefinedInputError, match="undefined on label"):
                op.expand(lab(H, W1, 5))


class TestSharedTables:
    def test_a_built_in_table_is_shared_and_a_dict_table_is_not(self):
        ops = [pbs(1, 2, 3, 4) for _ in range(3)]
        for op in ops[1:]:
            assert op.rules is ops[0].rules and op._expanded is ops[0]._expanded
        # the same table spelled with plain tuples and int coefficients
        spelled = ElementOp("pbs", {tuple(pat): tuple((tuple(out), 1) for out, _ in outs)
                                    for pat, outs in ops[0].rules.items()})
        assert spelled.rules == ops[0].rules and spelled.rules is not ops[0].rules
        assert spelled._expanded is not ops[0]._expanded
        assert ops[0].expand(lab(V, W2, 2)) == spelled.expand(lab(V, W2, 2)) == (
            (lab(V, W2, 3), 1 + 0j),
        )

    def test_noise_tables_are_keyed_by_their_bits(self):
        plus, minus = (collective_noise(NoiseParams(1.0, b)) for b in (0j, complex(-0.0, 0.0)))
        assert plus.rules is not minus.rules
        for op, sign in ((plus, 1.0), (minus, -1.0)):
            _, (_, beta) = op.expand(lab(H, W1, 0))
            (_, minus_conj_beta), _ = op.expand(lab(V, W1, 0))
            assert math.copysign(1.0, beta.real) == sign
            assert math.copysign(1.0, minus_conj_beta.real) == -sign
        again = collective_noise(NoiseParams(1.0, 0j))
        assert again.rules is plus.rules and again._expanded is plus._expanded

    def test_shared_rules_are_read_only(self):
        op = wdm(0, 1, 2)
        with pytest.raises(TypeError):
            op.rules[lab(H, W1, 9)] = ()

    def test_signed_zeros_are_not_merged(self):
        h, v = lab(H, None, None), lab(V, None, None)

        def op(zero):
            return ElementOp("phase", {h: ((h, complex(1.0, zero)),), v: ((v, complex(zero, 1.0)),)})

        plus, minus = op(0.0), op(-0.0)
        assert plus.rules is not minus.rules
        for built, sign in ((plus, 1.0), (minus, -1.0), (op(0.0), 1.0), (op(-0.0), -1.0)):
            (_, h_coef), = built.expand(lab(H, W1, 0))
            (_, v_coef), = built.expand(lab(V, W1, 0))
            assert math.copysign(1.0, h_coef.imag) == sign
            assert math.copysign(1.0, v_coef.real) == sign

    def test_table_cache_is_bounded(self):
        bound = elements._table.cache_info().maxsize
        assert bound == elements._TABLES_MAX
        for k in range(bound + 10):
            collective_noise(NoiseAngles(k / (bound + 10)).to_params())
            wdm(3 * k, 3 * k + 1, 3 * k + 2)
        assert elements._table.cache_info().currsize <= bound

    def test_fixed_elements_compile_a_table_once_per_paths(self, monkeypatch):
        compiled = []

        def counting(name, rules):
            compiled.append((name, len(rules)))
            return compile_(name, rules)

        compile_ = elements._compile
        monkeypatch.setattr(elements, "_compile", counting)
        p = (9001, 9002, 9003, 9004)
        for _ in range(3):
            ops = [wdm(*p[:3]), frequency_shifter(p[0]), half_wave_plate(p[1]), pbs(*p)]
        # each table's rule count, compiled on the first round only
        assert compiled == [("wdm", 2), ("fs", 1), ("hwp", 2), ("pbs", 4)]
        assert [op.expand(lab(H, W1, 9001)) for op in ops[:2]] == [
            ((lab(H, W1, 9002), 1 + 0j),), ((lab(H, W2, 9001), 1 + 0j),)
        ]

    def test_expand_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(elements, "_EXPANDED_MAX", 5)
        op = collective_noise(NoiseParams(0.6, 0.8))
        op._expanded.clear()
        for path in range(20):
            assert op.expand(lab(H, W1, path)) == (
                (lab(H, W1, path), 0.6 + 0j), (lab(V, W1, path), 0.8 + 0j)
            )
        assert len(op._expanded) == 5


# (the integer op, an op equal to it but for one path's type, the integer
# op's image of H, w1 on path 0)
TYPED_PATH_PAIRS = [
    (lambda: frequency_shifter(0), lambda: frequency_shifter(0.0), single_photon(H, W2, 0)),
    (lambda: wdm(0, 1, 2), lambda: wdm(0, True, 2), single_photon(H, W1, 1)),
    (lambda: wdm(0, 1, 2), lambda: wdm(0, np.int64(1), 2), single_photon(H, W1, 1)),
    (lambda: ElementOp("move", {lab(H, W1, 0): ((lab(H, W1, 1), 1.0),)}),
     lambda: ElementOp("move", {lab(H, W1, 0): ((lab(H, W1, 1.0), 1.0),)}),
     single_photon(H, W1, 1)),
]


class TestTypedTableCaches:
    """A path of True, 1.0 or np.int64(1) equals, and hashes as, an integer
    path; the table caches key each path with its type, so whichever op a
    process builds first, the integer op works and the other one raises."""

    @pytest.mark.parametrize("integer_first", [True, False])
    @pytest.mark.parametrize("make_int, make_other, image", TYPED_PATH_PAIRS)
    def test_an_equal_path_of_another_type_keeps_its_own_table(
        self, make_int, make_other, image, integer_first
    ):
        elements._table.cache_clear()
        photon = single_photon(H, W1, 0)
        for make in ((make_int, make_other) if integer_first else (make_other, make_int)) * 2:
            if make is make_int:
                out = apply_element(photon, 0, make())
                assert out == image and [type(l.path) for (l,) in out.amplitudes] == [int]
            else:
                with pytest.raises(ValueError, match="^state label paths are integers, got "):
                    apply_element(photon, 0, make())


class TestIsometryCheck:
    def test_random_noise_ops_pass(self, rand):
        for _ in range(100):
            collective_noise(random_noise(rand))  # constructor asserts isometry

    def test_non_isometric_rules_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ElementOp("bad", {lab(H, None, None): ((lab(H, None, None), 0.5),)})

    def test_non_isometric_rules_rejected_on_every_construction(self):
        rules = {lab(V, None, 3): ((lab(V, None, 3), 0.5),)}
        for _ in range(3):
            with pytest.raises(ValueError, match="orthonormal"):
                ElementOp("bad", rules)

    @pytest.mark.parametrize(
        "coef", [math.nan, complex(math.nan, 0.0), complex(1.0, math.nan)]
    )
    def test_nan_coefficient_rejected_on_every_construction(self, coef):
        rules = {lab(H, None, None): ((lab(H, None, None), coef),),
                 lab(V, None, None): ((lab(V, None, None), 1.0),)}
        for _ in range(2):
            with pytest.raises(ValueError, match="orthonormal"):
                ElementOp("nan", rules)

    def test_non_orthogonal_columns_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ElementOp(
                "bad",
                {
                    lab(H, None, None): ((lab(H, None, None), 1.0),),
                    lab(V, None, None): ((lab(H, None, None), 1.0),),
                },
            )


class TestCollectivity:
    def test_noise_commutes_with_wdm(self, rand):
        for _ in range(25):
            p = random_noise(rand)
            noise, router = collective_noise(p), wdm(0, 1, 2)
            state = random_state(rand, single_photon_labels(0))
            noise_first = apply_element(apply_element(state, 0, noise), 0, router)
            wdm_first = apply_element(apply_element(state, 0, router), 0, noise)
            for labels, amp in noise_first.amplitudes.items():
                assert wdm_first.amplitudes.get(labels, 0j) == pytest.approx(amp, abs=1e-12)
            assert len(noise_first.amplitudes) == len(wdm_first.amplitudes)


class TestMixedNoiseWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MixedNoiseWeights(0.5, 0.5, 0.5, 0.5)

    def test_no_negative_weights(self):
        for weights in ((1.2, -0.2, 0.0, 0.0), (float("nan"), 0.5, 0.5, 0.0)):
            with pytest.raises(ValueError, match=">= 0"):
                MixedNoiseWeights(*weights)


def _with(record, changes: dict) -> list:
    """record's field values with changes[name] in place of each named field."""
    return [changes.get(name, value) for name, value in zip(record._fields, record)]


def _unchecked(record, changes: dict):
    """A record of record's class holding _with(record, changes), built past its check."""
    return tuple.__new__(type(record), _with(record, changes))


# Every way a record is built: each takes a record and the field changes to build with.
_BUILDS = {
    "positional": lambda r, changes: type(r)(*_with(r, changes)),
    "keyword": lambda r, changes: type(r)(**dict(zip(r._fields, _with(r, changes)))),
    "_replace": lambda r, changes: r._replace(**changes),
    "copy": lambda r, changes: copy.copy(_unchecked(r, changes)),
    "deepcopy": lambda r, changes: copy.deepcopy(_unchecked(r, changes)),
    "pickle": lambda r, changes: pickle.loads(pickle.dumps(_unchecked(r, changes))),
}
_VALID = {
    "NoiseParams": NoiseParams(0.6, 0.8j),
    "NoiseAngles": NoiseAngles(0.7, 1.3),
    "MixedNoiseWeights": MixedNoiseWeights(0.1, 0.2, 0.3, 0.4),
}
_OUT_OF_RANGE = {  # one case per check each validated record makes
    "NoiseParams-norm": (_VALID["NoiseParams"], {"beta": 0.6}),
    "NoiseAngles-theta": (_VALID["NoiseAngles"], {"theta": math.pi}),
    "NoiseAngles-phi": (_VALID["NoiseAngles"], {"phi": -1.0}),
    "MixedNoiseWeights-negative": (_VALID["MixedNoiseWeights"], {"f1": -0.1, "f2": 0.4}),
    "MixedNoiseWeights-sum": (_VALID["MixedNoiseWeights"], {"f4": 0.5}),
}


class TestRecordContract:
    """The validated records check their fields on every way they are built,
    and every elements record is immutable with its fields in the old order."""

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=list(_BUILDS))
    @pytest.mark.parametrize(
        "record, changes", _OUT_OF_RANGE.values(), ids=list(_OUT_OF_RANGE)
    )
    def test_an_out_of_range_value_raises_on_every_path(self, build, record, changes):
        with pytest.raises(ValueError):
            build(record, changes)

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=list(_BUILDS))
    @pytest.mark.parametrize("record", _VALID.values(), ids=list(_VALID))
    def test_a_valid_record_comes_through_every_path_unchanged(self, build, record):
        built = build(record, {})
        assert type(built) is type(record) and built == record

    @pytest.mark.parametrize(
        "record, fields",
        [
            (_VALID["NoiseParams"], ("alpha", "beta")),
            (_VALID["NoiseAngles"], ("theta", "phi")),
            (_VALID["MixedNoiseWeights"], ("f1", "f2", "f3", "f4")),
        ],
        ids=list(_VALID),
    )
    def test_form(self, record, fields):
        check_record_form(record, fields)


EXACT_FLIP = NoiseParams(0.0, 1.0)


class TestMixedChannel:
    """A fully decohered mixture's components are pure runs in which each
    party's channel is the identity (H) or the exact flip (V)."""

    def test_single_weight_single_component(self):
        mixed = run_distribution_mixed(MixedNoiseWeights(1.0, 0.0, 0.0, 0.0))
        assert mixed == run_distribution(NoiseParams.identity(), NoiseParams.identity())

    def test_uniform_weights_four_components(self):
        mixed = run_distribution_mixed(MixedNoiseWeights(0.25, 0.25, 0.25, 0.25))
        channels = (NoiseParams.identity(), EXACT_FLIP)
        components = [(a, b) for a in channels for b in channels]  # HH, HV, VH, VV
        for i, (o, noise) in enumerate(zip(mixed, components)):
            live = run_distribution(*noise)[i]
            assert o.probability == 0.25 * live.probability
            assert o.conditional == live.conditional

    def test_components_keep_frequency_factor(self):
        state = apply_element(source_state((0, 1)), 1, collective_noise(EXACT_FLIP))
        # photon a stays H, photon b flipped to V, frequency factor untouched
        assert state.amplitudes.get((lab(H, W1, 0), lab(V, W2, 1)), 0j) == pytest.approx(S)
        assert state.amplitudes.get((lab(H, W2, 0), lab(V, W1, 1)), 0j) == pytest.approx(S)
        flipped = {(lab(H, W1, 0), lab(V, W2, 1)): S, (lab(H, W2, 0), lab(V, W1, 1)): S}
        assert state == PureState(2, flipped)
