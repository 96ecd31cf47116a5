import collections
import contextlib
import copy
import io
import itertools
import math
import pickle
import re
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import random_noise, random_state, single_photon, single_photon_labels
from entdist.distribution import source_state
from entdist import cli, elements, qstate
from entdist.elements import ElementOp, NoiseParams, collective_noise, half_wave_plate
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
from oracles import project_paths_scan

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

S = 1 / math.sqrt(2)


def lab(pol, freq, path):
    return BasisLabel(pol, freq, path)


def post_pbs_state(alpha, beta, delta, gamma, a1=0, a2=1, b1=2, b2=3):
    """The post-PBS two-party state built directly from its printed expansion."""
    amps = {
        (lab(H, W2, a1), lab(V, W2, b1)): alpha * delta * S,
        (lab(V, W2, a1), lab(H, W2, b1)): alpha * delta * S,
        (lab(H, W2, a1), lab(H, W2, b2)): alpha * gamma * S,
        (lab(V, W2, a1), lab(V, W2, b2)): alpha * gamma * S,
        (lab(V, W2, a2), lab(V, W2, b1)): beta * delta * S,
        (lab(H, W2, a2), lab(H, W2, b1)): beta * delta * S,
        (lab(V, W2, a2), lab(H, W2, b2)): beta * gamma * S,
        (lab(H, W2, a2), lab(V, W2, b2)): beta * gamma * S,
    }
    return PureState(2, amps)


# Labels that _check_label(*label) cannot take: arities 1, 2 and 4, an unhashable
# path, and a bare field (PureState(1, {("H",): 1.0}) holds the one label "H").
MALFORMED_LABELS = [(H,), (H, W1), (H, W1, 0, 0), (H, W1, [0]), H]
MALFORMED_MESSAGE = r"^state labels are hashable \(polarization, frequency, path\), got "
MALFORMED_RULE_MESSAGE = r"^write: rule labels are hashable \(polarization, frequency, path\), got "


class _Items:
    """A mapping stand-in for the PureState and ElementOp constructors, which
    read only items(); its keys need not be hashable."""

    def __init__(self, items):
        self._items = items

    def items(self):
        return self._items


class TestPureStateConstruction:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(1, {(lab(H, W1, 0),): 0.5})

    @pytest.mark.parametrize("label", [lab("h", W1, 0), lab(H, "w3", 0)])
    def test_rejects_unknown_polarization_or_frequency(self, label):
        with pytest.raises(ValueError, match="unknown polarization or frequency"):
            PureState(1, {(label,): 1.0})

    def test_drops_exact_zero_amplitudes(self):
        state = PureState(1, {(lab(H, W1, 0),): 1.0, (lab(V, W1, 0),): 0.0})
        assert len(state.amplitudes) == 1

    def test_bad_label_on_zero_amplitude_is_ignored(self):
        state = PureState(1, {(lab(H, W1, 0),): 1.0, (lab("h", W1, 0),): 0.0})
        assert list(state.amplitudes) == [(lab(H, W1, 0),)]

    def test_plain_tuple_labels_become_basis_labels(self):
        # (H, w1, 0) comes plain before its BasisLabel twin; (V, w1, 1) after it
        amps = {
            ((H, W1, 0), lab(V, W1, 1)): S,
            (lab(H, W1, 0), lab(H, W1, 1)): 0.5,
            (lab(V, W1, 0), (V, W1, 1)): 0.5,
        }
        state = PureState(2, amps)
        assert list(state.amplitudes.items()) == list(amps.items())
        assert all(type(l) is BasisLabel for labels in state.amplitudes for l in labels)

    def test_first_bad_label_is_named(self):
        good = lab(H, W1, 0)
        amps = {
            (good, good): 0.5,
            (good, lab(H, "w3", 1)): 0.5,
            (lab("h", W1, 0), good): 0.5,
            (good, lab(H, W1, None)): 0.5,
        }
        with pytest.raises(ValueError) as err:
            PureState(2, amps)
        assert str(err.value) == (
            "unknown polarization or frequency in state label "
            "BasisLabel(polarization='H', frequency='w3', path=1)"
        )

    @pytest.mark.parametrize(
        "amps",
        [
            {(lab(H, W1, 0),): math.nan},
            {(lab(H, W1, 0),): complex(0.0, math.nan)},
            {(lab(H, W1, 0),): 1.0, (lab(V, W1, 0),): math.nan},
        ],
    )
    def test_rejects_nan_amplitude(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(1, amps)

    def test_bad_label_raises_on_every_construction(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown polarization"):
                PureState(1, {(lab("h", W1, 7),): 1.0})
            message = f"path of state label {lab(H, W1, None)} must be an integer, got None"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                PureState(1, {((H, W1, None),): 1.0})

    def test_memoized_label_check_gives_the_checked_label(self):
        # the plain tuple first, then its BasisLabel twin, then the tuple again
        for label in ((V, W2, 41), lab(V, W2, 41), (V, W2, 41)):
            (labels,) = PureState(1, {(label,): 1.0}).amplitudes
            assert labels == (lab(V, W2, 41),) and type(labels[0]) is BasisLabel

    def test_label_memo_is_bounded(self):
        bound = qstate._check_label.cache_info().maxsize
        assert bound == qstate._LABELS_MAX
        for path in range(bound + 10):
            PureState(1, {(lab(H, W1, 10_000 + path),): 1.0})
        assert qstate._check_label.cache_info().currsize <= bound

    @pytest.mark.parametrize("path", ["x", 0.5, True, 1.0, None])
    def test_rejects_non_integer_path(self, path):
        PureState(1, {(lab(H, W1, 1),): 1.0})  # the integer twin of True and 1.0 is memoized
        with pytest.raises(ValueError, match="path") as err:
            PureState(1, {((H, W1, path),): 1.0})
        assert repr(path) in str(err.value)

    @pytest.mark.parametrize("path", [-1, -5])
    def test_rejects_a_negative_path(self, path):
        """PureState(1, {(("H", None, -1),): 1.0}) built, though no element
        builder, port name or source state takes the path."""
        for label in ((H, None, path), (H, W1, path)):
            with pytest.raises(ValueError) as err:
                PureState(1, {(label,): 1.0})
            assert str(err.value) == f"path of state label {lab(*label)} must be >= 0, got {path}"

    @pytest.mark.parametrize("label", MALFORMED_LABELS)
    def test_rejects_malformed_label(self, label):
        with pytest.raises(ValueError, match=MALFORMED_MESSAGE) as err:
            PureState(1, _Items((((label,), 1.0),)))
        assert str(err.value).endswith(f"got {label!r}")

    def test_rejects_zero_photons(self):
        with pytest.raises(ValueError, match="^n_photons must be >= 1, got 0$"):
            PureState(0, {})

    @pytest.mark.parametrize("n_photons", ["2", 1.5, True, None])
    def test_rejects_a_photon_count_that_is_no_integer(self, n_photons):
        """"2" raised a bare '<' not supported, and 1.5 reached the norm check."""
        message = f"n_photons must be an integer, got {n_photons!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PureState(n_photons, {})

    @pytest.mark.parametrize("n_photons", [3, 1, 2**70])
    def test_a_photon_count_off_the_keys_names_n_photons(self, n_photons):
        """The error named only the label tuple and its photons, and 2**70
        read as one more mismatch."""
        labels = (lab(H, W1, 0), lab(V, W2, 1))
        message = f"n_photons is {n_photons}, but label tuple {labels} has 2 photons"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PureState(n_photons, {labels: 1.0})

    def test_a_numpy_photon_count_builds_an_int_count(self):
        state = PureState(np.int64(1), {(lab(H, W1, 0),): 1.0})
        assert state.n_photons == 1 and type(state.n_photons) is int

    @pytest.mark.parametrize("key", [5, None, 1.0])
    def test_rejects_a_key_with_no_length(self, key):
        """PureState(1, {5: 1.0}) raised a bare TypeError: object of type
        'int' has no len()."""
        for amplitudes in ({key: 1.0}, _Items(((key, 1.0),))):
            with pytest.raises(ValueError, match=f"^state keys are tuples of labels, got {key!r}$"):
                PureState(1, amplitudes)

    def test_rejects_wrong_photon_count(self):
        with pytest.raises(ValueError, match="2"):
            PureState(2, {(lab(H, W1, 0),): 1.0})

    def test_immutable(self):
        state = single_photon(H, W1, 0)
        with pytest.raises(AttributeError):
            state.n_photons = 3


class TestCopyAndPickle:
    def test_copy_deepcopy_and_pickle_give_equal_states(self, rand):
        noisy = apply_element(source_state([0, 5]), 0, collective_noise(random_noise(rand)))
        for state in (source_state([0, 5]), noisy, single_photon(V, None, 2)):
            for twin in (copy.copy(state), copy.deepcopy(state),
                         pickle.loads(pickle.dumps(state))):
                assert twin is not state and twin == state
                assert list(twin.amplitudes.items()) == list(state.amplitudes.items())
                assert all(type(l) is BasisLabel for labels in twin.amplitudes for l in labels)

    def test_copy_leaves_out_the_path_index(self):
        state = source_state([0, 5])
        project_paths(state, {0: 0})
        assert state._by_paths
        twin = pickle.loads(pickle.dumps(state))
        assert twin._by_paths == {}
        assert project_paths(twin, {0: 0}) == project_paths(state, {0: 0})


class TestApplyElement:
    def test_identity_leaves_state_bitwise_equal(self, rand):
        state = random_state(rand, single_photon_labels())
        assert apply_element(state, 0, collective_noise(NoiseParams.identity())) == state

    def test_noise_action_on_h(self):
        alpha, beta = 0.6, 0.8
        state = single_photon(H, W1, 5)
        out = apply_element(state, 0, collective_noise(NoiseParams(alpha, beta)))
        assert out.amplitudes.get((lab(H, W1, 5),), 0j) == pytest.approx(alpha)
        assert out.amplitudes.get((lab(V, W1, 5),), 0j) == pytest.approx(beta)

    def test_noise_then_adjoint_restores(self, rand):
        p = random_noise(rand)
        adjoint = NoiseParams(p.alpha.conjugate(), -p.beta)
        state = random_state(rand, single_photon_labels())
        back = apply_element(
            apply_element(state, 0, collective_noise(p)), 0, collective_noise(adjoint)
        )
        for labels, amp in state.amplitudes.items():
            assert back.amplitudes.get(labels, 0j) == pytest.approx(amp, abs=1e-12)

    def test_bad_photon_index(self):
        state = single_photon(H, W1, 0)
        with pytest.raises(ValueError, match="^photon index must be < 1, got 1$"):
            apply_element(state, 1, collective_noise(NoiseParams.identity()))

    @pytest.mark.parametrize("photon", [0.0, True, False, "0", None])
    def test_a_photon_index_that_is_no_integer_is_a_value_error(self, photon):
        state = source_state([0, 5])
        message = f"photon index must be an integer, got {photon!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_element(state, photon, half_wave_plate(0))

    def test_a_numpy_integer_photon_index_is_an_index(self):
        state = source_state([0, 5])
        assert apply_element(state, np.int64(1), half_wave_plate(5)) == apply_element(
            state, 1, half_wave_plate(5)
        )

    def test_exact_cancellation_is_pruned(self):
        minus = PureState(1, {(lab(H, W1, 0),): S, (lab(V, W1, 0),): -S})
        out = apply_element(minus, 0, collective_noise(NoiseParams(S, S)))
        assert set(out.amplitudes) == {(lab(H, W1, 0),)}

    def test_linearity(self, rand):
        labels = single_photon_labels()
        s1 = random_state(rand, labels)
        s2 = random_state(rand, labels)
        c1, c2 = 0.6, 0.8j
        combined = {
            key: c1 * s1.amplitudes.get(key, 0j) + c2 * s2.amplitudes.get(key, 0j) for key in labels
        }
        norm = math.sqrt(sum(abs(a) ** 2 for a in combined.values()))
        mixed = PureState(1, {k: v / norm for k, v in combined.items()})
        op = collective_noise(random_noise(rand))
        out = apply_element(mixed, 0, op)
        out1 = apply_element(s1, 0, op)
        out2 = apply_element(s2, 0, op)
        for key in labels:
            expected = (c1 * out1.amplitudes.get(key, 0j) + c2 * out2.amplitudes.get(key, 0j)) / norm
            assert out.amplitudes.get(key, 0j) == pytest.approx(expected, abs=1e-12)


@contextlib.contextmanager
def _checks_by_caller():
    """Counts _check_label calls by the function that made them, in qstate and
    in elements, which checks each output label as it fills an expand memo."""
    callers, check = collections.Counter(), qstate._check_label

    def counting(*label):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "<genexpr>":
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return check(*label)

    with mock.patch.object(qstate, "_check_label", counting), \
            mock.patch.object(elements, "_check_label", counting):
        yield callers


def _hadamard():
    """A Hadamard on polarization that moves the photon one path on, as an
    explicit table over paths 0 and 1."""
    rules = {}
    for path in (0, 1):
        h, v = lab(H, None, path + 1), lab(V, None, path + 1)
        rules[lab(H, None, path)] = ((h, S), (v, S))
        rules[lab(V, None, path)] = ((h, S), (v, -S))
    return ElementOp("hadamard", rules)


# Output labels that _check_label refuses, each with its error.
BAD_WRITES = [
    (("h", W1, 1), f"unknown polarization or frequency in state label {lab('h', W1, 1)}"),
    ((H, "w3", 1), f"unknown polarization or frequency in state label {lab(H, 'w3', 1)}"),
] + [
    ((H, W1, path), f"path of state label {lab(H, W1, path)} must be an integer, got {path!r}")
    for path in ("x", 0.5, True, 1.0, np.bool_(True))
] + [
    ((H, W1, -1), f"path of state label {lab(H, W1, -1)} must be >= 0, got -1"),
]


class TestCheckedRebuilds:
    """apply_element writes only the labels an ElementOp checked as it filled
    its expand memo; projection and stripping reuse checked labels.  Every
    rebuild still checks the norm."""

    @pytest.mark.parametrize("out, message", BAD_WRITES)
    def test_bad_written_label_raises_on_every_call_and_is_never_memoized(self, out, message):
        photon = single_photon(H, W1, 0)
        # the table that writes the integer twin (H, w1, 1) is checked and memoized first
        apply_element(photon, 0, ElementOp("write", {lab(H, W1, 0): ((lab(H, W1, 1), 1.0),)}))
        op = ElementOp("write", {lab(H, W1, 0): ((out, 1.0),)})
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                apply_element(photon, 0, op)
            assert str(err.value) == message
        assert not op._expanded

    def test_a_passthrough_of_an_unchecked_input_is_never_memoized(self):
        """expand is public: memoized, the passthrough of a path True would
        answer every later lookup of the equal label with the path 1."""
        elements._table.cache_clear()  # a fresh expand memo
        op = half_wave_plate(77)
        message = f"path of state label {lab(H, W1, True)} must be an integer, got True"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            op.expand(lab(H, W1, True))
        out = apply_element(single_photon(H, W1, 1), 0, op)
        assert out == single_photon(H, W1, 1) and [type(l.path) for (l,) in out.amplitudes] == [int]

    @pytest.mark.parametrize("label", MALFORMED_LABELS)
    def test_malformed_rule_label_fails_to_build(self, label):
        """As an output and as a pattern (given through _Items, since a
        malformed pattern may be unhashable), on every construction."""
        good = lab(H, W1, 0)
        for rule in ((good, ((label, 1.0),)), (label, ((good, 1.0),))) * 2:
            with pytest.raises(ValueError, match=MALFORMED_RULE_MESSAGE) as err:
                ElementOp("write", _Items((rule,)))
            assert str(err.value).endswith(f"got {label!r}")

    @pytest.mark.parametrize("path", [True, 1.0])
    def test_path_equal_to_an_integer_written_in_the_same_call_is_rejected(self, path):
        """The passthrough writes (H, w1, 1) for the H term and the rule
        writes (H, w1, path) for the V term; the check keys each field by its
        type, so the second is refused although it equals the first."""
        state = PureState(1, {(lab(H, W1, 1),): S, (lab(V, W1, 0),): S})
        op = ElementOp("move", {lab(V, W1, 0): ((lab(H, W1, path), 1.0),)}, passthrough=True)
        with pytest.raises(ValueError, match="^path of state label ") as err:
            apply_element(state, 0, op)
        assert str(err.value).endswith(f"must be an integer, got {path!r}")

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_a_numpy_integer_path_is_written_as_its_int(self, dtype):
        """The check keys the numpy path by its type and returns the label of
        its int, so a state, or an element's output, holds int paths alone."""
        state = PureState(1, {((H, W1, dtype(3)),): 1.0})
        assert state == single_photon(H, W1, 3)
        assert [type(l.path) for (l,) in state.amplitudes] == [int]
        op = ElementOp("move", {lab(V, W1, 0): ((lab(H, W1, dtype(3)), 1.0),)}, passthrough=True)
        out = apply_element(single_photon(V, W1, 0), 0, op)
        assert out == single_photon(H, W1, 3) and [type(l.path) for (l,) in out.amplitudes] == [int]

    @pytest.mark.parametrize("op", [object(), None, collective_noise(NoiseParams.identity()).expand])
    def test_only_an_element_op_is_applied(self, op):
        with pytest.raises(TypeError, match=f"^apply_element takes an ElementOp, got {type(op).__name__}$"):
            apply_element(single_photon(H, W1, 0), 0, op)

    def test_a_subclass_of_element_op_is_refused(self):
        class Unchecked(ElementOp):
            def expand(self, label):
                return (((H, W1, True), 1.0),)

        with pytest.raises(TypeError, match="^apply_element takes an ElementOp, got Unchecked$"):
            apply_element(single_photon(H, W1, 0), 0, Unchecked("hwp", {}, passthrough=True))

    def test_expand_checks_each_output_once_per_table_and_input(self):
        state = PureState(2, {(lab(H, W1, 0), lab(H, W1, 1)): S, (lab(H, W1, 0), lab(V, W1, 1)): S})
        elements._table.cache_clear()  # a fresh expand memo for the HWP
        with _checks_by_caller() as callers:
            fresh = apply_element(state, 0, op := _hadamard())
            assert callers == {"_expand": 2}  # H on path 0, met twice: its two outputs, once
            apply_element(state, 0, op)  # the same op: its memo answers
            apply_element(state, 1, half_wave_plate(5))  # passthrough: H and V on path 1
            assert callers == {"_expand": 2 + 2}
            apply_element(state, 0, _hadamard())  # an equal dict table: its own memo
            assert callers == {"_expand": 4 + 2}
            apply_element(fresh, 1, op)  # H and V on path 1, two outputs each
            assert callers == {"_expand": 6 + 4}

    def test_warm_ghz8_request_checks_only_the_source_labels(self):
        """A warm request makes 16 checks, all by the constructor of the
        source state (8 photons in 2 terms); its 40 element calls make none.
        (A cold one also fills the expand memos and checks the labels of the
        256 reference states it builds.)"""
        argv = workloads.argv_for("ghz8", 1)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
            with _checks_by_caller() as callers:
                assert cli.main(argv) == 0
        assert callers == {"__init__": 16}

    def test_plain_tuple_output_becomes_a_basis_label(self):
        state = PureState(2, {(lab(H, W1, 0), lab(V, W2, 5)): 1.0})
        op = ElementOp("split", {(V, W2, 5): (((H, W2, 6), S), ((V, W2, 7), S))})
        out = apply_element(state, 1, op)
        assert list(out.amplitudes.items()) == [
            ((lab(H, W1, 0), lab(H, W2, 6)), S),
            ((lab(H, W1, 0), lab(V, W2, 7)), S),
        ]
        assert all(type(l) is BasisLabel for labels in out.amplitudes for l in labels)

    @pytest.mark.parametrize("coef", [0.5, 2.0, 1j * 0.9])
    def test_non_isometric_op_is_rejected(self, coef):
        with pytest.raises(ValueError, match="not orthonormal"):
            apply_element(single_photon(H, W1, 0), 0, ElementOp("scale", {lab(H, W1, 0): ((lab(V, W1, 0), coef),)}))

    @pytest.mark.parametrize("coef", [math.nan, complex(0.0, math.nan), complex(math.nan, 1.0)])
    def test_nan_coefficient_is_rejected(self, coef):
        rules = {lab(H, W1, 0): ((lab(H, W1, 0), S), (lab(V, W1, 0), coef))}
        with pytest.raises(ValueError, match="not orthonormal"):
            apply_element(single_photon(H, W1, 0), 0, ElementOp("nan", rules))

    def test_passthrough_onto_a_written_label_fails_the_norm_check(self):
        """The rule moves H on path 0 onto path 1, where the passthrough
        keeps the H on path 1: the two terms merge, and the rebuilt state's
        squared norm is 2."""
        op = ElementOp("merge", {lab(H, None, 0): ((lab(H, None, 1), 1.0),)}, passthrough=True)
        state = PureState(1, {(lab(H, W1, 0),): S, (lab(H, W1, 1),): S})
        with pytest.raises(ValueError, match="^state not normalized: squared norm "):
            apply_element(state, 0, op)

    def test_rebuilds_check_the_norm(self):
        state = PureState(1, {(lab(H, W1, 0),): S, (lab(V, W1, 0),): S})
        with pytest.raises(ValueError, match="not normalized"):
            PureState._of_checked(1, {(lab(H, W1, 0),): S})
        assert PureState._of_checked(1, dict(state.amplitudes)) == state


class TestInnerProduct:
    def test_self_inner_product_is_norm(self, rand):
        state = random_state(rand, single_photon_labels())
        ip = inner_product(state, state)
        assert ip.imag == pytest.approx(0.0, abs=1e-15)
        assert ip.real == pytest.approx(state.norm_squared(), abs=1e-12)

    def test_h_v_orthogonal(self):
        assert inner_product(single_photon(H, W1, 0), single_photon(V, W1, 0)) == 0

    def test_bell_states_orthogonal(self):
        psi = PureState(2, {(lab(H, W2, 0), lab(V, W2, 2)): S, (lab(V, W2, 0), lab(H, W2, 2)): S})
        phi = PureState(2, {(lab(H, W2, 0), lab(H, W2, 2)): S, (lab(V, W2, 0), lab(V, W2, 2)): S})
        assert inner_product(psi, phi) == 0

    def test_conjugate_symmetry(self, rand):
        a = random_state(rand, single_photon_labels())
        b = random_state(rand, single_photon_labels())
        assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate())

    def test_photon_count_mismatch(self):
        a = single_photon(H, W1, 0)
        b = PureState(2, {(lab(H, W1, 0), lab(H, W1, 1)): 1.0})
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(a, b)


class TestFidelity:
    def setup_method(self):
        self.psi = PureState(2, {(lab(H, None, 0), lab(V, None, 1)): S, (lab(V, None, 0), lab(H, None, 1)): S})
        self.phi = PureState(2, {(lab(H, None, 0), lab(H, None, 1)): S, (lab(V, None, 0), lab(V, None, 1)): S})

    def test_self_fidelity_one(self):
        assert fidelity(self.psi, self.psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_fidelity_zero(self):
        assert fidelity(self.psi, self.phi) == 0.0

    def test_uniform_two_qubit_state_half(self):
        # oracle: |<psi+|s>|^2 with s uniform over the four basis kets is
        # |(1/sqrt2)(1/2) + (1/sqrt2)(1/2)|^2 = 1/2
        uniform = PureState(
            2,
            {
                (lab(H, None, 0), lab(H, None, 1)): 0.5,
                (lab(H, None, 0), lab(V, None, 1)): 0.5,
                (lab(V, None, 0), lab(H, None, 1)): 0.5,
                (lab(V, None, 0), lab(V, None, 1)): 0.5,
            },
        )
        assert fidelity(uniform, self.psi) == pytest.approx(0.5, abs=1e-12)


class TestProjectPaths:
    def test_post_pbs_pattern_probability_and_state(self, rand):
        p1, p2 = random_noise(rand), random_noise(rand)
        state = post_pbs_state(p1.alpha, p1.beta, p2.alpha, p2.beta)
        prob, cond = project_paths(state, {0: 0, 1: 2})
        assert prob == pytest.approx(abs(p1.alpha * p2.alpha) ** 2, abs=1e-12)
        psi_ref = PureState(
            2, {(lab(H, None, 0), lab(V, None, 2)): S, (lab(V, None, 0), lab(H, None, 2)): S}
        )
        assert fidelity(strip_frequency(cond), psi_ref) == pytest.approx(1.0, abs=1e-12)

    def test_absent_pattern(self):
        state = post_pbs_state(1.0, 0.0, 1.0, 0.0)
        prob, cond = project_paths(state, {0: 1, 1: 3})
        assert prob == 0.0 and cond is None

    def test_deterministic_pattern(self):
        state = post_pbs_state(1.0, 0.0, 1.0, 0.0)
        prob, cond = project_paths(state, {0: 0, 1: 2})
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert cond is not None

    @pytest.mark.parametrize("pattern", [{0.0: 0}, {True: 5}, {0: 0, 0.5: 5}, {"1": 5}])
    def test_a_photon_index_that_is_no_integer_is_a_value_error(self, pattern):
        bad = next(p for p in pattern if type(p) is not int)
        message = f"photon index must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            project_paths(source_state([0, 5]), pattern)

    @pytest.mark.parametrize(
        "pattern, bad",
        [({0: 3, True: 8}, True), ({0: 3, 1.0: 8}, 1.0), ({False: 3, True: 8}, False),
         ({0: 3, np.float64(1.0): 8}, np.float64(1.0))],
    )
    def test_a_stored_index_skips_no_photon_index_check(self, pattern, bad):
        """A stripped state stores its all-photon index under (0, 1), which
        (0, True) and (0, 1.0) equal; such a pattern once drew the (3, 8)
        probability from it, where a fresh state refuses it."""
        stripped = strip_frequency(PureState(2, {(lab(H, W2, 3), lab(V, W2, 8)): 1.0}))
        message = f"photon index must be an integer, got {bad!r}"
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                project_paths(stripped, pattern)
        assert project_paths(stripped, {0: 3, 1: 8})[0] == 1.0
        assert project_paths(stripped, {0: 3, np.int64(1): 8})[0] == 1.0

    @pytest.mark.parametrize("photon", [-1, 2])
    def test_photon_index_out_of_range(self, photon):
        state = source_state([0, 5])
        rule = ">= 0" if photon < 0 else "< 2"
        with pytest.raises(ValueError, match=f"^photon index must be {rule}, got {photon}$"):
            project_paths(state, {photon: 5})

    def test_projection_leaves_state_value_unchanged(self, rand):
        p1, p2 = random_noise(rand), random_noise(rand)
        projected = post_pbs_state(p1.alpha, p1.beta, p2.alpha, p2.beta)
        fresh = post_pbs_state(p1.alpha, p1.beta, p2.alpha, p2.beta)
        for pattern in ({0: 0, 1: 2}, {1: 3}, {0: 1, 1: 3}):
            project_paths(projected, pattern)
        assert projected == fresh and fresh == projected
        assert repr(projected) == repr(fresh)
        assert list(projected.amplitudes.items()) == list(fresh.amplitudes.items())

    def test_pattern_completeness(self, rand):
        p1, p2 = random_noise(rand), random_noise(rand)
        state = post_pbs_state(p1.alpha, p1.beta, p2.alpha, p2.beta)
        total = sum(
            project_paths(state, {0: pa, 1: pb})[0] for pa in (0, 1) for pb in (2, 3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSharedState:
    def test_threads_sharing_a_state_and_op_get_the_scan_results(self, rand):
        """Threads race to build one state's path index and the expand memo
        of two ops with one table; each must see either no memo entry or a
        complete one."""
        labels = [
            tuple(lab(pol, W1, path) for pol, path in photons)
            for photons in itertools.product(itertools.product((H, V), range(4)), repeat=3)
        ]
        patterns = [dict(zip(photons, paths))
                    for photons in ((0, 1, 2), (2, 0), (1,))
                    for paths in itertools.product(range(4), repeat=len(photons))]
        shared = random_state(rand, labels)
        fresh = PureState(3, dict(shared.amplitudes))
        noise = random_noise(rand)
        expected = [project_paths_scan(fresh, pattern) for pattern in patterns]
        expected_noisy = apply_element(fresh, 1, collective_noise(noise))
        elements._table.cache_clear()  # so the race starts from an empty expand memo
        ops = (collective_noise(noise), collective_noise(noise))
        assert ops[0]._expanded is ops[1]._expanded and not ops[0]._expanded
        results, errors = {}, []

        def work(k):
            try:
                results[k] = ([project_paths(shared, pattern) for pattern in patterns],
                              apply_element(shared, 1, ops[k % 2]))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors and len(results) == 4
        for projections, noisy in results.values():
            assert noisy == expected_noisy
            for (prob, cond), (want_prob, want_cond) in zip(projections, expected):
                assert prob == want_prob
                assert list(cond.amplitudes.items()) == list(want_cond.amplitudes.items())


class TestStripFrequency:
    def test_basic_strip(self):
        state = PureState(2, {(lab(H, W2, 0), lab(V, W2, 2)): 1.0})
        stripped = strip_frequency(state)
        assert stripped.amplitudes.get((lab(H, None, 0), lab(V, None, 2)), 0j) == 1.0

    def test_post_pbs_state_strips_whole(self, rand):
        p1, p2 = random_noise(rand), random_noise(rand)
        state = post_pbs_state(p1.alpha, p1.beta, p2.alpha, p2.beta)
        stripped = strip_frequency(state)
        assert stripped.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert all(l.frequency is None for labels in stripped.amplitudes for l in labels)

    @pytest.mark.parametrize("photon", [8, -1])
    def test_photons_beyond_the_stored_index_are_checked(self, photon):
        """The stored all-photon index skips no check: a pattern on any other
        photons builds its own index, and checks them first."""
        state = PureState(8, {tuple(lab(H, W2, 5 * j + 3) for j in range(8)): 1.0})
        stripped = strip_frequency(state)
        assert project_paths(stripped, {j: 5 * j + 3 for j in range(8)})[0] == 1.0
        rule = ">= 0" if photon < 0 else "< 8"
        with pytest.raises(ValueError, match=f"^photon index must be {rule}, got {photon}$"):
            project_paths(stripped, {photon: 3})
        assert list(stripped._by_paths) == [tuple(range(8))]

    def test_stripped_state_rejected(self):
        stripped = strip_frequency(PureState(2, {(lab(H, W2, 0), lab(V, W2, 2)): 1.0}))
        with pytest.raises(ValueError, match="^photon 0 already has no frequency label$"):
            strip_frequency(stripped)

    def test_superposed_frequency_rejected(self):
        # pre-WDM style state: one photon still in a frequency superposition
        state = PureState(
            2,
            {
                (lab(H, W1, 0), lab(H, W2, 1)): S,
                (lab(H, W2, 0), lab(H, W1, 1)): S,
            },
        )
        with pytest.raises(ValueError, match="superposition of frequencies"):
            strip_frequency(state)


class TestNormPreservation:
    def test_random_isometries_preserve_norm(self, rand):
        for _ in range(50):
            state = random_state(rand, single_photon_labels())
            out = apply_element(state, 0, collective_noise(random_noise(rand)))
            assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
