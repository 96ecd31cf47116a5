"""Scalar reference implementations the vectorised code is checked against.

Sequential Born-rule measurement of one photon at a time, a per-trial uniform
stream over the counter-based generator, the hand-written two-party Bell
states and reference table, and the per-trial BBM92 reconciliation rule.
None of them is used by entdist itself.
"""
from __future__ import annotations

import math

from entdist import rng
from entdist.protocols import MeasurementBasis
from entdist.qstate import BasisLabel, H, Polarization, PureState, V

S = 1 / math.sqrt(2)

# The two-party reference Bell state per port pattern, written out by hand
# from the post-PBS expansion; entdist derives it from the GHZ flip rule.
TWO_PARTY_REFERENCES: dict[tuple[int, int], str] = {
    (1, 1): "psi_plus",
    (1, 2): "phi_plus",
    (2, 1): "phi_plus",
    (2, 2): "psi_plus",
}


def bell_state(name: str, port_a: int, port_b: int) -> PureState:
    """psi_plus = (|HV> + |VH>)/sqrt(2) or phi_plus = (|HH> + |VV>)/sqrt(2) on
    two ports, polarization only, written out term by term."""
    a = lambda pol: BasisLabel(pol, None, port_a)
    b = lambda pol: BasisLabel(pol, None, port_b)
    if name == "psi_plus":
        return PureState(2, {(a(H), b(V)): S, (a(V), b(H)): S})
    if name == "phi_plus":
        return PureState(2, {(a(H), b(H)): S, (a(V), b(V)): S})
    raise ValueError(f"unknown Bell state {name!r}")


class TrialRng:
    """Sequential uniform stream for one trial: draw k is uniforms(seed, trial, k).

    Satisfies the small protocol ``measure`` expects (``uniform()``), so a
    numpy Generator can stand in for it.
    """

    def __init__(self, seed: int, trial: int, first_draw: int = 0):
        self.seed = seed
        self.trial = trial
        self.draw = first_draw

    def uniform(self) -> float:
        u = float(rng.uniforms(self.seed, self.trial, self.draw)[0])
        self.draw += 1
        return u


def project_polarization(
    state: PureState, photon_index: int, vector: dict[Polarization, complex]
) -> tuple[float, dict]:
    """Born probability and unnormalized collapsed amplitudes for projecting
    one photon onto the given polarization vector."""
    partial: dict[tuple, complex] = {}
    for labels, amp in state.amplitudes.items():
        lab = labels[photon_index]
        coef = vector.get(lab.polarization)
        if coef is None:
            continue
        key = labels[:photon_index] + ((lab.frequency, lab.path),) + labels[photon_index + 1 :]
        val = partial.get(key, 0j) + coef.conjugate() * amp
        if val == 0:
            partial.pop(key, None)
        else:
            partial[key] = val
    prob = sum(abs(v) ** 2 for v in partial.values())
    collapsed: dict[tuple, complex] = {}
    for key, coef in partial.items():
        freq, path = key[photon_index]
        for pol, vamp in vector.items():
            if vamp == 0:
                continue
            labels = (
                key[:photon_index]
                + (BasisLabel(pol, freq, path),)
                + key[photon_index + 1 :]
            )
            collapsed[labels] = coef * vamp
    return prob, collapsed


def measure(
    state: PureState, photon_index: int, basis: MeasurementBasis, rand
) -> tuple[int, PureState]:
    """Projective polarization measurement of one photon (Born rule).

    ``rand`` needs a ``uniform()`` method returning floats in [0, 1); bit 0
    means the basis' first vector.  The collapsed state keeps the photon in
    the measured eigenstate.
    """
    v0, v1 = basis.vectors()
    p0, collapsed0 = project_polarization(state, photon_index, v0)
    if rand.uniform() < p0:
        bit, prob, collapsed = 0, p0, collapsed0
    else:
        prob, collapsed = project_polarization(state, photon_index, v1)
        bit = 1
    scale = 1.0 / math.sqrt(prob)
    return bit, PureState(
        state.n_photons, {labels: amp * scale for labels, amp in collapsed.items()}
    )


def reconciliation_bit(pattern: tuple[int, int], basis: MeasurementBasis, bobs_raw_bit: int) -> int:
    """Map Bob's raw outcome to a key bit using the public port pattern.

    The pattern fixes which Bell state the pair is in; psi+ anticorrelates in
    Z (and correlates in X), phi+ correlates in both, so Bob flips exactly
    when the pattern's state is psi+ and the basis is Z.
    """
    if tuple(pattern) not in TWO_PARTY_REFERENCES:
        raise ValueError(f"unknown port pattern {pattern}")
    if TWO_PARTY_REFERENCES[tuple(pattern)] == "psi_plus" and basis is MeasurementBasis.Z:
        return bobs_raw_bit ^ 1
    return bobs_raw_bit
