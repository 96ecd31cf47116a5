"""Scalar reference implementations the vectorised code is checked against.

Sequential Born-rule measurement of one photon at a time, the joint outcome
table as a per-photon dict spread, a per-trial uniform
stream restated in Python ints from the documented word format, the
hand-written two-party Bell states and reference table, the closed-form
two-party outcome table (analytic_outcomes), the per-trial BBM92
reconciliation rule, port-pattern projection by a full scan of the state's
terms, an element's write loop with two dict lookups per term, the
baseline's per-basis error rates in closed form, and the CLI's canonical
JSON as a rounding pass plus json.dumps.  None of them is used by
entdist itself.
"""
from __future__ import annotations

import cmath
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from entdist.elements import NoiseParams
from entdist.protocols import BASIS_VECTORS
from entdist.qstate import BasisLabel, H, PureState, V

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


class AnalyticRow(NamedTuple):
    """One row of the closed-form two-party outcome table."""

    slots: tuple[int, int]
    coefficient: complex
    reference: str                    # psi_plus or phi_plus

    @property
    def probability(self) -> float:
        return abs(self.coefficient) ** 2


def analytic_outcomes(noise_a: NoiseParams, noise_b: NoiseParams) -> list[AnalyticRow]:
    """Closed-form outcome table straight from the post-PBS expansion,
    bypassing the element engine; serves as the engine's independent oracle.
    """
    a, b = noise_a.alpha, noise_a.beta
    d, g = noise_b.alpha, noise_b.beta
    return [
        AnalyticRow((1, 1), a * d, "psi_plus"),
        AnalyticRow((1, 2), a * g, "phi_plus"),
        AnalyticRow((2, 1), b * d, "phi_plus"),
        AnalyticRow((2, 2), b * g, "psi_plus"),
    ]


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """The splitmix64 finalizer on a Python int in [0, 2**64)."""
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _MASK64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class TrialRng:
    """Sequential uniform stream for one trial: draw k is
    u = (mix(mix(trial ^ mix(seed ^ 0x9E3779B97F4A7C15)) ^ k) >> 11) * 2**-53,
    the word format entdist.rng documents, in Python ints without entdist.rng.

    Satisfies the small protocol ``measure`` expects (``uniform()``), so a
    numpy Generator can stand in for it.
    """

    def __init__(self, seed: int, trial: int, first_draw: int = 0):
        self.seed = seed
        self.trial = trial
        self.draw = first_draw
        self._inner = _splitmix64(trial ^ _splitmix64(seed ^ 0x9E3779B97F4A7C15))

    def uniform(self) -> float:
        u = (_splitmix64(self._inner ^ self.draw) >> 11) * 2.0**-53
        self.draw += 1
        return u


def project_polarization(
    state: PureState, photon_index: int, vector: dict[str, complex]
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
    state: PureState, photon_index: int, basis: str, rand
) -> tuple[int, PureState]:
    """Projective polarization measurement of one photon (Born rule).

    ``rand`` needs a ``uniform()`` method returning floats in [0, 1); bit 0
    means the basis' first vector.  The collapsed state keeps the photon in
    the measured eigenstate.
    """
    v0, v1 = BASIS_VECTORS[basis]
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


def joint_outcome_distribution_dict_spread(state: PureState, bases) -> np.ndarray:
    """protocols.joint_outcome_distribution as one dict per photon step,
    conjugating each basis coefficient where it is used: the same products
    (amp * conj(c_0) * conj(c_1) ...) summed in the same order."""
    vecs = [BASIS_VECTORS[b] for b in bases]
    totals = [0j] * 2 ** state.n_photons
    for labels, amp in state.amplitudes.items():
        spread = {0: amp}
        for vec, lab in zip(vecs, labels):
            spread = {
                2 * idx + bit: term * coef.conjugate()
                for idx, term in spread.items()
                for bit, v in enumerate(vec)
                if (coef := v.get(lab.polarization)) is not None
            }
        for idx, term in spread.items():
            totals[idx] += term
    return np.array([abs(total) ** 2 for total in totals])


def reconciliation_bit(pattern: tuple[int, int], basis: str, bobs_raw_bit: int) -> int:
    """Map Bob's raw outcome to a key bit using the public port pattern.

    The pattern fixes which Bell state the pair is in; psi+ anticorrelates in
    Z (and correlates in X), phi+ correlates in both, so Bob flips exactly
    when the pattern's state is psi+ and the basis is Z.
    """
    if tuple(pattern) not in TWO_PARTY_REFERENCES:
        raise ValueError(f"unknown port pattern {pattern}")
    if TWO_PARTY_REFERENCES[tuple(pattern)] == "psi_plus" and basis == "Z":
        return bobs_raw_bit ^ 1
    return bobs_raw_bit


def project_paths_scan(state: PureState, pattern: dict[int, int]) -> tuple[float, PureState | None]:
    """Post-select on photons exiting the given paths by testing every term
    of the state; entdist's project_paths looks the pattern up instead."""
    selected: dict[tuple, complex] = {}
    prob = 0.0
    for labels, amp in state.amplitudes.items():
        if all(labels[i].path == p for i, p in pattern.items()):
            selected[labels] = amp
            prob += abs(amp) ** 2
    if prob == 0.0:
        return 0.0, None
    if prob < sys.float_info.min:
        peak = max(abs(amp) for amp in selected.values())
        scale = 1.0 / (peak * math.sqrt(sum(abs(amp / peak) ** 2 for amp in selected.values())))
    else:
        scale = 1.0 / math.sqrt(prob)
    conditional = PureState(
        state.n_photons, {labels: amp * scale for labels, amp in selected.items()}
    )
    return prob, conditional


def apply_element_two_lookups(state: PureState, photon_index: int, op) -> dict:
    """qstate.apply_element's amplitudes, written term by term as
    get(key, 0j) + amp * coef, then stored, or popped when the sum is 0."""
    amps: dict[tuple, complex] = {}
    for labels, amp in state.amplitudes.items():
        for out_label, coef in op.expand(labels[photon_index]):
            key = labels[:photon_index] + (BasisLabel(*out_label),) + labels[photon_index + 1 :]
            val = amps.get(key, 0j) + amp * coef
            if val:
                amps[key] = val
            else:
                amps.pop(key, None)
    return amps


def baseline_error_rates(theta_a: float, phi_a: float, theta_b: float, phi_b: float) -> dict[str, float]:
    """The baseline's error rate per basis, in closed form.  phi+ has the
    amplitude matrix I / sqrt(2); the channels make it W / sqrt(2) with
    W = U_a U_b^T, so e_Z = |W_01|^2 and e_X = |(H W H)_01|^2 (W is unitary,
    so |W_10| = |W_01|).  U's columns are the images of |H> and |V> under
    |H> -> cos(theta)|H> + e^{i phi} sin(theta)|V> and its SU(2) completion."""

    def unitary(theta: float, phi: float) -> np.ndarray:
        a, b = math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)
        return np.array([[a, -b.conjugate()], [b, a]])

    w = unitary(theta_a, phi_a) @ unitary(theta_b, phi_b).T
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    return {"Z": abs(w[0, 1]) ** 2, "X": abs((hadamard @ w @ hadamard)[0, 1]) ** 2}


def _round12(obj):
    """Clamp floats to 12 significant digits so JSON round-trips exactly, and
    order every object's keys, so the JSON text is canonical."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def dump_json_two_pass(obj) -> str:
    """The CLI's canonical JSON text: _round12, then json.dumps indented by 2."""
    return json.dumps(_round12(obj), indent=2) + "\n"
