"""Sparse multi-photon state vectors over (polarization, frequency, path) labels.

A ``PureState`` maps n-photon label tuples to complex amplitudes; only nonzero
amplitudes are stored.  Photon index i belongs to party i throughout.  All
values are immutable after construction: every operation builds a new state,
so states can be shared freely between concurrent workers.  A state memoizes
its terms grouped by output paths for ``project_paths``; the memo never
changes the state's value.
"""
from __future__ import annotations

import math
import sys
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

NORM_TOL = 1e-9       # allowed |norm^2 - 1| on construction
ALGEBRA_TOL = 1e-12   # tolerance for algebraic identities (isometry, sums)


# Polarizations and frequencies are plain strings, compared with ==.
H, V = "H", "V"
W1, W2 = "w1", "w2"

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


def _check_label(label) -> BasisLabel:
    if not isinstance(label, BasisLabel):
        label = BasisLabel(*label)
    if label.polarization not in (H, V) or label.frequency not in (W1, W2, None):
        raise ValueError(f"unknown polarization or frequency in state label {label}")
    if label.path is None:
        raise ValueError(f"state labels need a concrete path, got {label}")
    return label


class PureState:
    """n-photon state as a sparse amplitude table over label tuples.

    The public constructor requires squared norm 1 within ``NORM_TOL``;
    sub-normalized amplitude dicts only ever exist as internal intermediates
    of post-selection and measurement.
    """

    __slots__ = ("n_photons", "_amps", "_by_paths")

    def __init__(self, n_photons: int, amplitudes: Mapping[LabelTuple, complex]):
        if n_photons < 1:
            raise ValueError(f"n_photons must be >= 1, got {n_photons}")
        amps: dict[LabelTuple, complex] = {}
        checked: dict = {}  # each distinct label, checked once
        for labels, amp in amplitudes.items():
            if len(labels) != n_photons:
                raise ValueError(
                    f"label tuple {labels} has {len(labels)} photons, expected {n_photons}"
                )
            amp = complex(amp)
            if amp == 0:
                continue
            for l in labels:
                if l not in checked:
                    checked[l] = _check_label(l)
            amps[tuple(map(checked.__getitem__, labels))] = amp
        norm_sq = sum(abs(a) ** 2 for a in amps.values())
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: squared norm {norm_sq!r}")
        object.__setattr__(self, "n_photons", n_photons)
        object.__setattr__(self, "_amps", amps)
        # photon indices -> {their paths: {labels: amp}}; see _terms_on_paths
        object.__setattr__(self, "_by_paths", {})

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def amplitudes(self) -> Mapping[LabelTuple, complex]:
        return MappingProxyType(self._amps)

    def amplitude(self, labels: LabelTuple) -> complex:
        return self._amps.get(tuple(labels), 0j)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self._amps.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PureState)
            and self.n_photons == other.n_photons
            and self._amps == other._amps
        )

    def __repr__(self) -> str:
        return f"PureState(n={self.n_photons}, terms={len(self._amps)})"


def _check_photon_index(state: PureState, photon_index: int) -> None:
    if not 0 <= photon_index < state.n_photons:
        raise ValueError(
            f"photon index {photon_index} out of range for {state.n_photons}-photon state"
        )


def apply_element(state: PureState, photon_index: int, op) -> PureState:
    """Apply a single-photon linear map to one photon slot.

    ``op`` is anything with ``expand(label) -> ((out_label, coefficient), ...)``
    (see elements.ElementOp); it must be defined on every occupied input label.
    """
    _check_photon_index(state, photon_index)
    amps: dict[LabelTuple, complex] = {}
    for labels, amp in state.amplitudes.items():
        for out_label, coef in op.expand(labels[photon_index]):
            key = labels[:photon_index] + (out_label,) + labels[photon_index + 1 :]
            val = amps.get(key, 0j) + amp * coef
            if val == 0:
                amps.pop(key, None)
            else:
                amps[key] = val
    return PureState(state.n_photons, amps)


def inner_product(a: PureState, b: PureState) -> complex:
    """Sesquilinear <a|b> over the shared label basis (conjugates a)."""
    if a.n_photons != b.n_photons:
        raise ValueError(
            f"photon count mismatch: {a.n_photons} vs {b.n_photons}"
        )
    small, large = (a, b) if len(a.amplitudes) <= len(b.amplitudes) else (b, a)
    total = 0j
    for labels, amp in small.amplitudes.items():
        other = large.amplitude(labels)
        if other:
            if small is a:
                total += amp.conjugate() * other
            else:
                total += other.conjugate() * amp
    return total


def fidelity(state: PureState, reference: PureState) -> float:
    """|<ref|state>|^2.

    Inputs are renormalized defensively, so slightly sub-normalized states
    are measured against their normalized direction.
    """
    ref_norm = reference.norm_squared()
    if ref_norm == 0:
        raise ValueError("zero-norm reference")
    norm = state.norm_squared()
    if norm == 0:
        raise ValueError("zero-norm state")
    return abs(inner_product(reference, state)) ** 2 / (norm * ref_norm)


def _terms_on_paths(state: PureState, photons: tuple[int, ...]) -> dict:
    """The state's terms grouped by the paths of the given photons, each group
    in the state's term order.

    Built in one pass on first use and memoized on the state.  The memo entry
    is stored only once complete, so a concurrent reader never sees a partial
    index; two racing builds store equal values.
    """
    index = state._by_paths.get(photons)
    if index is None:
        index = {}
        for labels, amp in state._amps.items():
            index.setdefault(tuple(labels[i].path for i in photons), {})[labels] = amp
        state._by_paths[photons] = index
    return index


def project_paths(
    state: PureState, pattern: Mapping[int, PathId]
) -> tuple[float, PureState | None]:
    """Post-select on photons exiting the given paths.

    Returns (probability, conditional state); the conditional is renormalized
    and is None when the pattern has probability 0.
    """
    for i in pattern:
        _check_photon_index(state, i)
    selected = _terms_on_paths(state, tuple(pattern)).get(tuple(pattern.values()), {})
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
    conditional = PureState(
        state.n_photons, {labels: amp * scale for labels, amp in selected.items()}
    )
    return prob, conditional


def strip_frequency(state: PureState) -> PureState:
    """Drop the frequency labels once every photon has a definite frequency.

    Valid only when, for each photon slot, all occupied labels carry the same
    frequency (as after the frequency shifters); otherwise the frequency is
    still entangled and cannot be separated.
    """
    per_photon: list[Optional[str]] = [None] * state.n_photons
    for labels in state.amplitudes:
        for i, lab in enumerate(labels):
            if lab.frequency is None:
                raise ValueError(f"photon {i} already has no frequency label")
            if per_photon[i] is None:
                per_photon[i] = lab.frequency
            elif per_photon[i] != lab.frequency:
                raise ValueError(
                    f"photon {i} is in a superposition of frequencies; cannot strip"
                )
    amps = {
        tuple(BasisLabel(lab.polarization, None, lab.path) for lab in labels): amp
        for labels, amp in state.amplitudes.items()
    }
    return PureState(state.n_photons, amps)

