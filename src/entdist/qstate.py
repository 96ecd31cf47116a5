"""Sparse multi-photon state vectors over (polarization, frequency, path) labels.

A ``PureState`` maps n-photon label tuples to complex amplitudes; only nonzero
amplitudes are stored.  Photon index i belongs to party i throughout.  All
values are immutable after construction: every operation builds a new state,
so states can be shared freely between concurrent workers, and copied or
pickled for a process worker.  A state memoizes its terms grouped by output
paths for ``project_paths`` (``strip_frequency`` fills its result's
all-photon entry as it strips); the memo never changes the state's value and
is not copied.

Labels are checked where they enter a state.  The public constructor checks
every label (each distinct one is checked once per process, in a bounded
memo); ``apply_element`` writes only the labels an ElementOp checked as it
filled its ``expand`` memo, projection reuses the labels of the state it
starts from, and frequency stripping drops the frequency of those labels,
which keeps them valid.  Every state still passes the norm check.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

NORM_TOL = 1e-9  # |x - 1| of a state's norm^2, MixedNoiseWeights' sum, the CLI's probabilities, fidelities
ALGEBRA_TOL = 1e-12  # element isometry, NoiseParams' |alpha|^2 + |beta|^2 - 1, protocols._model's 2**-n snap


class InvariantError(Exception):
    """A result the model rules out (lost probability, an inexact delivered
    state or outcome table, a nonzero scheme QBER); the CLI exits 1 on it."""


# Polarizations and frequencies are plain strings, compared with ==.
H, V = "H", "V"
W1, W2 = "w1", "w2"

# Measurement bases are the strings "Z", "X" and "Y" (protocols.BASIS_VECTORS
# holds their vectors).  qss_run's basis pairs: each party measures in one of
# the two.  They sit in this numpy-free module so that the CLI can list them
# without loading the Monte-Carlo layers.
BASIS_PAIRS = {
    "xy": ("X", "Y"),
    "zy": ("Z", "Y"),
}

# Paths are plain integers; distribution.port_name names the circuit's ports.
PathId = int


class BasisLabel(NamedTuple):
    """One photon's classical label.

    ``frequency`` is None for states that carry no frequency information
    (after ``strip_frequency``).  Element rule tables additionally use None
    fields as wildcards; state labels always have polarization H or V,
    frequency w1, w2 or None, and a concrete path.
    """

    polarization: Optional[str]
    frequency: Optional[str]
    path: Optional[PathId]


LabelTuple = tuple  # tuple[BasisLabel, ...]


_LABELS_MAX = 4096  # distinct state labels whose check is memoized per process


# typed: a path of True or 1.0 equals, and hashes as, the path 1, so the
# memo keys each field with its type; called as _check_label(*label).
@functools.lru_cache(maxsize=_LABELS_MAX, typed=True)
def _check_label(polarization, frequency, path) -> BasisLabel:
    """The label as a BasisLabel, checked once per distinct label; a bad label
    raises on every call."""
    label = BasisLabel(polarization, frequency, path)
    if polarization not in (H, V) or frequency not in (W1, W2, None):
        raise ValueError(f"unknown polarization or frequency in state label {label}")
    return BasisLabel(polarization, frequency, _integer(f"path of state label {label}", path, 0))


class PureState:
    """n-photon state as a sparse amplitude table over label tuples.

    The public constructor requires squared norm 1 within ``NORM_TOL`` and
    keeps the sum it checked; sub-normalized amplitude dicts only ever exist
    as internal intermediates of post-selection and measurement.
    """

    __slots__ = ("n_photons", "_amps", "_by_paths", "_norm_sq")

    def __init__(self, n_photons: int, amplitudes: Mapping[LabelTuple, complex]):
        n_photons = _integer("n_photons", n_photons, 1)
        amps: dict[LabelTuple, complex] = {}
        for labels, amp in _mapping("amplitudes", amplitudes).items():
            try:
                photons = len(labels)
            except TypeError:  # a key with no length
                raise ValueError(f"state keys are tuples of labels, got {labels!r}") from None
            if photons != n_photons:
                raise ValueError(f"n_photons is {n_photons}, but label tuple {labels} has {photons} photons")
            amp = complex(amp)
            if amp == 0:
                continue
            checked = []
            for label in labels:
                try:  # a label without three fields, or with an unhashable one
                    checked.append(_check_label(*label))
                except TypeError:
                    raise ValueError(
                        f"state labels are hashable (polarization, frequency, path), got {label!r}"
                    ) from None
            amps[tuple(checked)] = amp
        self._init_checked(n_photons, amps)

    @classmethod
    def _of_checked(cls, n_photons: int, amps: dict[LabelTuple, complex]) -> PureState:
        """A state on ``amps``, which the caller built from checked BasisLabel
        tuples and nonzero complex amplitudes; only the norm is checked.  The
        state keeps ``amps`` itself, so the caller must not change it after."""
        state = object.__new__(cls)
        state._init_checked(n_photons, amps)
        return state

    def _init_checked(self, n_photons: int, amps: dict[LabelTuple, complex]) -> None:
        norm_sq = sum([abs(a) ** 2 for a in amps.values()])
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: squared norm {norm_sq!r}")
        _set_n_photons(self, n_photons)
        _set_amps(self, amps)
        _set_norm_sq(self, norm_sq)  # amps never change after this
        # photon indices -> {their paths: {labels: amp}}; see _terms_on_paths
        _set_by_paths(self, {})

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def __reduce__(self):
        # rebuild through the checked constructor; the path index is left out
        return PureState, (self.n_photons, dict(self._amps))

    @property
    def amplitudes(self) -> Mapping[LabelTuple, complex]:
        return MappingProxyType(self._amps)

    def norm_squared(self) -> float:
        return self._norm_sq

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PureState)
            and self.n_photons == other.n_photons
            and self._amps == other._amps
        )

    def __repr__(self) -> str:
        return f"PureState(n={self.n_photons}, terms={len(self._amps)})"


# each slot's own setter, for _init_checked: PureState.__setattr__ refuses every write
_set_n_photons, _set_amps = PureState.n_photons.__set__, PureState._amps.__set__
_set_by_paths, _set_norm_sq = PureState._by_paths.__set__, PureState._norm_sq.__set__


def _integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int; a ValueError naming it unless it is an int or a
    numpy integer (not a bool or numpy bool) in [lo, hi), either bound optional."""
    if type(value) is int:  # the common case, without operator.index's call
        index = value
    else:  # never a float; a numpy bool by its dtype, as numpy before 2 only warned on indexing one
        try:
            index = None if getattr(value, "dtype", None) == "bool" else operator.index(value)
        except TypeError:
            index = None
        if index is None or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if lo is not None and index < lo:
        raise ValueError(f"{name} must be >= {lo}, got {index}")
    if hi is not None and index >= hi:
        raise ValueError(f"{name} must be < {hi}, got {index}")
    return index


def _sequence(name: str, value) -> list:
    """value as a list; a TypeError naming it unless it is iterable."""
    try:
        return list(value)
    except TypeError:
        raise TypeError(f"{name} must be a sequence, got {value!r}") from None


def _mapping(name: str, value):
    """value; a TypeError naming it unless it is a mapping (has items())."""
    if not hasattr(value, "items"):
        raise TypeError(f"{name} must be a mapping, got {value!r}")
    return value


def _instance(cls: type, **named) -> None:
    """A TypeError naming the first of named that is not a cls."""
    for name, value in named.items():
        if not isinstance(value, cls):  # from None: a caller's AttributeError is no cause
            raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}") from None


def apply_element(state: PureState, photon_index: int, op: ElementOp) -> PureState:
    """Apply an element to one photon slot.

    ``op`` must be an ElementOp, not a subclass that could override its
    checked ``expand``, defined on every occupied input label.  It checked
    its labels as it filled its memo, so none is checked here.  A new key is
    hashed once.
    """
    if type(op) is not ElementOp:
        raise TypeError(f"apply_element takes an ElementOp, got {type(op).__name__}")
    isinstance(state, PureState) or _instance(PureState, state=state)  # once per element: inline
    _integer("photon index", photon_index, 0, state.n_photons)
    amps: dict[LabelTuple, complex] = {}
    expand, setdefault = op.expand, amps.setdefault
    for labels, amp in state._amps.items():
        head, tail = labels[:photon_index], labels[photon_index + 1 :]
        for out_label, coef in expand(labels[photon_index]):
            key = head + (out_label,) + tail
            val = 0j + amp * coef  # 0j + keeps a new key's value as get(key, 0j) + ... gave it
            old = setdefault(key, val)
            if old is not val:  # the key was there: merge
                val = amps[key] = old + amp * coef
            if not val:
                del amps[key]
    return PureState._of_checked(state.n_photons, amps)


def inner_product(a: PureState, b: PureState) -> complex:
    """Sesquilinear <a|b> over the shared label basis (conjugates a)."""
    try:  # not isinstance: a state has _amps, and this runs once per pattern
        a_amps, b_amps = a._amps, b._amps
    except AttributeError:
        _instance(PureState, a=a, b=b)
        raise
    if a.n_photons != b.n_photons:
        raise ValueError(
            f"photon count mismatch: {a.n_photons} vs {b.n_photons}"
        )
    total = 0j
    for labels, amp in a_amps.items():
        other = b_amps.get(labels)
        if other:
            total += amp.conjugate() * other
    return total


def fidelity(state: PureState, reference: PureState) -> float:
    """|<ref|state>|^2 / (<state|state> <ref|ref>).

    Every PureState has unit norm within NORM_TOL, kept from that check, so the
    norms are never 0; dividing by them measures the state's direction.
    """
    try:  # as in inner_product
        norms = state._norm_sq * reference._norm_sq
    except AttributeError:
        _instance(PureState, state=state, reference=reference)
        raise
    return abs(inner_product(reference, state)) ** 2 / norms


def _terms_on_paths(state: PureState, photons: tuple[int, ...]) -> dict:
    """The state's terms grouped by the paths of the given photons, each group
    in the state's term order, built in one pass and memoized on the state.

    Called on a memo miss, it checks the photon indices first, so every memo
    entry is for checked photons (strip_frequency stores the all-photon one).
    The entry is stored only once complete, so a concurrent reader never sees
    a partial index; two racing builds store equal values.
    """
    for photon in photons:
        _integer("photon index", photon, 0, state.n_photons)
    index = {}
    for labels, amp in state._amps.items():
        index.setdefault(tuple([labels[i].path for i in photons]), {})[labels] = amp
    state._by_paths[photons] = index
    return index


def project_paths(
    state: PureState, pattern: Mapping[int, PathId]
) -> tuple[float, PureState | None]:
    """Post-select on photons exiting the given paths.

    Returns (probability, conditional state); the conditional is renormalized
    and is None when the pattern has probability 0.  The photon indices are
    checked when an index is built for them; after that, and for every photon
    of a stripped state, finding the pattern's terms is one memo lookup.  Only
    photon indices that are all ints look up the memo: True or 1.0 equals, and
    hashes as, the photon 1, so any other index is checked again.
    """
    isinstance(state, PureState) or _instance(PureState, state=state)  # once per pattern: inline
    try:
        photons, paths = tuple(pattern), tuple(pattern.values())
    except (TypeError, AttributeError):  # no mapping
        raise TypeError(f"pattern must be a mapping, got {pattern!r}") from None
    exact = operator.countOf(map(type, photons), int) == len(photons)
    index = exact and state._by_paths.get(photons) or _terms_on_paths(state, photons)
    selected = index.get(paths, {})
    prob = 0.0
    for amp in selected.values():
        prob += abs(amp) ** 2
    if prob == 0.0:
        return 0.0, None
    if prob < sys.float_info.min:
        # A subnormal prob has lost digits, so 1/sqrt(prob) would not normalize;
        # take the norm at the amplitudes' own scale instead.
        peak = max(abs(amp) for amp in selected.values())
        scale = 1.0 / (peak * math.sqrt(sum(abs(amp / peak) ** 2 for amp in selected.values())))
    else:
        scale = 1.0 / math.sqrt(prob)
    conditional = PureState._of_checked(
        state.n_photons, {labels: amp * scale for labels, amp in selected.items()}
    )
    return prob, conditional


def strip_frequency(state: PureState) -> PureState:
    """Drop the frequency labels once every photon has a definite frequency.

    Valid only when, for each photon slot, all occupied labels carry the same
    frequency (as after the frequency shifters); otherwise the frequency is
    still entangled and cannot be separated.  The same pass over the terms
    builds the result's all-photon path index, as _terms_on_paths would.
    """
    _instance(PureState, state=state)
    stripped: dict[BasisLabel, tuple] = {}  # the state's labels, for this call: (stripped, path)
    for i, slot in enumerate(zip(*state._amps)):
        labels = set(slot)
        frequencies = {lab.frequency for lab in labels}
        if None in frequencies:
            raise ValueError(f"photon {i} already has no frequency label")
        if len(frequencies) > 1:
            raise ValueError(f"photon {i} is in a superposition of frequencies; cannot strip")
        for lab in labels:
            stripped[lab] = BasisLabel(lab.polarization, None, lab.path), lab.path
    # one frequency per photon makes the strip injective: no two terms merge
    amps, index = {}, {}
    for labels, amp in state._amps.items():
        key, paths = zip(*map(stripped.__getitem__, labels))
        amps[key] = amp
        index.setdefault(paths, {})[key] = amp
    result = PureState._of_checked(state.n_photons, amps)
    result._by_paths[tuple(range(state.n_photons))] = index
    return result


from .elements import ElementOp  # noqa: E402  (last: elements imports this module)
