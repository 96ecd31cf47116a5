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
import sys
from itertools import starmap
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

NORM_TOL = 1e-9       # allowed |norm^2 - 1| on construction
ALGEBRA_TOL = 1e-12   # tolerance for algebraic identities (isometry, sums)


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
    if path is None:
        raise ValueError(f"state labels need a concrete path, got {label}")
    if not isinstance(path, int) or isinstance(path, bool):
        raise ValueError(f"state label paths are integers, got {label}")
    return label


def _malformed(labels) -> ValueError:
    """The error for the first label that _check_label(*label) cannot take: one
    without exactly three fields, or with an unhashable field."""
    for label in labels:
        try:
            _check_label(*label)
        except TypeError:
            break
    return ValueError(f"state labels are hashable (polarization, frequency, path), got {label!r}")


class PureState:
    """n-photon state as a sparse amplitude table over label tuples.

    The public constructor requires squared norm 1 within ``NORM_TOL`` and
    keeps the sum it checked; sub-normalized amplitude dicts only ever exist
    as internal intermediates of post-selection and measurement.
    """

    __slots__ = ("n_photons", "_amps", "_by_paths", "_norm_sq")

    def __init__(self, n_photons: int, amplitudes: Mapping[LabelTuple, complex]):
        if n_photons < 1:
            raise ValueError(f"n_photons must be >= 1, got {n_photons}")
        amps: dict[LabelTuple, complex] = {}
        for labels, amp in amplitudes.items():
            if len(labels) != n_photons:
                raise ValueError(
                    f"label tuple {labels} has {len(labels)} photons, expected {n_photons}"
                )
            amp = complex(amp)
            if amp == 0:
                continue
            try:
                amps[tuple(starmap(_check_label, labels))] = amp
            except TypeError:
                raise _malformed(labels) from None
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


def _check_photon_index(state: PureState, photon_index: int) -> None:
    if not 0 <= photon_index < state.n_photons:
        raise ValueError(
            f"photon index {photon_index} out of range for {state.n_photons}-photon state"
        )


def apply_element(state: PureState, photon_index: int, op: ElementOp) -> PureState:
    """Apply an element to one photon slot.

    ``op`` must be an ElementOp, not a subclass that could override its
    checked ``expand``, defined on every occupied input label.  It checked
    its labels as it filled its memo, so none is checked here.  A new key is
    hashed once.
    """
    if type(op) is not ElementOp:
        raise TypeError(f"apply_element takes an ElementOp, got {type(op).__name__}")
    _check_photon_index(state, photon_index)
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
    if a.n_photons != b.n_photons:
        raise ValueError(
            f"photon count mismatch: {a.n_photons} vs {b.n_photons}"
        )
    total = 0j
    for labels, amp in a._amps.items():
        other = b._amps.get(labels)
        if other:
            total += amp.conjugate() * other
    return total


def fidelity(state: PureState, reference: PureState) -> float:
    """|<ref|state>|^2 / (<state|state> <ref|ref>).

    Every PureState has unit norm within NORM_TOL, kept from that check, so the
    norms are never 0; dividing by them measures the state's direction.
    """
    return abs(inner_product(reference, state)) ** 2 / (state._norm_sq * reference._norm_sq)


def _terms_on_paths(state: PureState, photons: tuple[int, ...]) -> dict:
    """The state's terms grouped by the paths of the given photons, each group
    in the state's term order, built in one pass and memoized on the state.

    Called on a memo miss, it checks the photon indices first, so every memo
    entry is for checked photons (strip_frequency stores the all-photon one).
    The entry is stored only once complete, so a concurrent reader never sees
    a partial index; two racing builds store equal values.
    """
    if photons:  # the lowest index if negative, else the highest: one check covers all
        low = min(photons)
        _check_photon_index(state, low if low < 0 else max(photons))
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
    of a stripped state, finding the pattern's terms is one memo lookup.
    """
    photons = tuple(pattern)
    index = state._by_paths.get(photons) or _terms_on_paths(state, photons)
    selected = index.get(tuple(pattern.values()), {})
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
