"""Monte-Carlo harnesses over distributed entangled states.

bbm92_run plays entanglement-based QKD over the noise-rejecting distribution
circuit; qss_run plays three-party GHZ secret sharing; baseline_direct sends
polarization entanglement straight through the same noise for contrast.  All
trial randomness comes from the counter-based generator in rng.py, so a run
is a pure function of its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import rng
from .distribution import (
    BellStateId,
    PathRegistry,
    apply_correction,
    bell_state,
    run_distribution,
    run_distribution_n,
)
from .elements import NoiseParams, NoiseAngles, collective_noise
from .qstate import (
    BasisLabel,
    H,
    Polarization,
    PureState,
    V,
    apply_element,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


class MeasurementBasis(Enum):
    Z = "Z"
    X = "X"
    Y = "Y"

    def vectors(self) -> tuple[dict[Polarization, complex], dict[Polarization, complex]]:
        """The two orthonormal basis vectors as amplitude maps over H/V.

        Bit 0 is the first vector (|H>, |+>, |+i>), bit 1 the second.
        """
        if self is MeasurementBasis.Z:
            return {H: 1.0 + 0j}, {V: 1.0 + 0j}
        if self is MeasurementBasis.X:
            return (
                {H: SQRT_HALF + 0j, V: SQRT_HALF + 0j},
                {H: SQRT_HALF + 0j, V: -SQRT_HALF + 0j},
            )
        return (
            {H: SQRT_HALF + 0j, V: 1j * SQRT_HALF},
            {H: SQRT_HALF + 0j, V: -1j * SQRT_HALF},
        )


def _project_polarization(
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
    p0, collapsed0 = _project_polarization(state, photon_index, v0)
    if rand.uniform() < p0:
        bit, prob, collapsed = 0, p0, collapsed0
    else:
        prob, collapsed = _project_polarization(state, photon_index, v1)
        bit = 1
    scale = 1.0 / math.sqrt(prob)
    return bit, PureState(
        state.n_photons, {labels: amp * scale for labels, amp in collapsed.items()}
    )


def joint_outcome_distribution(
    state: PureState, bases: Sequence[MeasurementBasis]
) -> np.ndarray:
    """P(b_1..b_n) for measuring every photon, as a 2**n vector (b_1 is the
    most significant bit).  Equals the product of sequential Born factors."""
    n = state.n_photons
    if len(bases) != n:
        raise ValueError(f"need {n} bases, got {len(bases)}")
    vecs = [b.vectors() for b in bases]
    probs = np.zeros(2 ** n)
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        total = 0j
        for labels, amp in state.amplitudes.items():
            term = amp
            for i, lab in enumerate(labels):
                coef = vecs[i][bits[i]].get(lab.polarization)
                if coef is None:
                    term = 0j
                    break
                term *= coef.conjugate()
            total += term
        probs[idx] = abs(total) ** 2
    return probs


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    pattern: tuple[int, ...]        # out-port slot (1 or 2) per party; () for baseline
    bases: tuple[MeasurementBasis, ...]
    outcomes: tuple[int, ...]       # raw bits, before any reconciliation
    sifted: bool
    error: bool | None              # None when the trial was not sifted


@dataclass(frozen=True)
class ProtocolStats:
    protocol: str
    n_trials: int
    n_sifted: int
    n_errors: int
    qber: float | None
    sift_rate: float
    seed: int
    sifted_by_basis: dict[str, int] = field(default_factory=dict)
    errors_by_basis: dict[str, int] = field(default_factory=dict)


def _make_stats(
    protocol: str,
    seed: int,
    sifted: np.ndarray,
    errors: np.ndarray,
    basis_index: np.ndarray,
    basis_names: Sequence[str],
) -> ProtocolStats:
    """Tally bool per-trial masks; trial t used basis_names[basis_index[t]]."""
    n_trials = len(sifted)
    n_sifted = int(np.count_nonzero(sifted))
    n_errors = int(np.count_nonzero(errors))
    in_basis = [basis_index == i for i in range(len(basis_names))]
    return ProtocolStats(
        protocol=protocol,
        n_trials=n_trials,
        n_sifted=n_sifted,
        n_errors=n_errors,
        qber=(n_errors / n_sifted) if n_sifted > 0 else None,
        sift_rate=n_sifted / n_trials,
        seed=seed,
        sifted_by_basis={
            name: int(np.count_nonzero(sifted & mask)) for name, mask in zip(basis_names, in_basis)
        },
        errors_by_basis={
            name: int(np.count_nonzero(errors & mask)) for name, mask in zip(basis_names, in_basis)
        },
    )


def reconciliation_bit(pattern: tuple[int, int], basis: MeasurementBasis, bobs_raw_bit: int) -> int:
    """Map Bob's raw outcome to a key bit using the public port pattern.

    The pattern fixes which Bell state the pair is in; psi+ anticorrelates in
    Z (and correlates in X), phi+ correlates in both, so Bob flips exactly
    when the pattern's state is psi+ and the basis is Z.
    """
    from .distribution import TWO_PARTY_REFERENCES

    if tuple(pattern) not in TWO_PARTY_REFERENCES:
        raise ValueError(f"unknown port pattern {pattern}")
    bell = TWO_PARTY_REFERENCES[tuple(pattern)]
    if bell is BellStateId.PSI_PLUS and basis is MeasurementBasis.Z:
        return bobs_raw_bit ^ 1
    return bobs_raw_bit


# Draw-index layout per trial, documented so trials can be replayed.  The
# layout is stable: seeded results depend on it bit for bit, so a change to it
# changes every seeded output and must be announced.
_DRAW_PATTERN = 0
_DRAW_BASIS = 1      # party j uses draw _DRAW_BASIS + j
_DRAW_OUTCOME = 16

# A categorical draw from a cumulative row c is the number of thresholds the
# uniform u reaches, leaving out the last, which float rounding keeps within
# 1e-16 of 1: sum_k [u >= c_k] over k < last.  Rows are cumsums of
# probabilities, so non-decreasing, and the count equals
# min(searchsorted(c, u, side="right"), last).


def _sample_patterns(live_probs: np.ndarray, seed: int, trials: np.ndarray) -> np.ndarray:
    u = rng.uniforms(seed, trials, _DRAW_PATTERN)
    pattern = np.zeros(len(u), dtype=np.intp)
    for threshold in np.cumsum(live_probs)[:-1]:
        pattern += u >= threshold
    return pattern


def _sample_outcomes(
    tables: np.ndarray, combo_index: np.ndarray, seed: int, trials: np.ndarray
) -> np.ndarray:
    """tables: (n_combos, n_outcomes) cumulative rows; one categorical draw per trial."""
    u = rng.uniforms(seed, trials, _DRAW_OUTCOME)
    last = tables.shape[1] - 1
    out = np.zeros(len(u), dtype=np.min_scalar_type(last))
    for k in range(last):
        out += u >= tables[:, k].take(combo_index)
    return out


def _two_party_trial_arrays(
    conditionals: Sequence[PureState],
    probabilities: np.ndarray,
    bases_enum: Sequence[MeasurementBasis],
    n_trials: int,
    seed: int,
):
    """Common trial machinery: sample pattern (if several), two bases, outcome.

    Bases come back as bool arrays (True picks bases_enum[1]), bits as small
    unsigned ints.
    """
    trials = np.arange(n_trials, dtype=np.uint64)
    n_states = len(conditionals)
    if n_states > 1:
        pat = _sample_patterns(probabilities, seed, trials)
    else:
        pat = np.zeros(n_trials, dtype=np.intp)
    basis_a = rng.uniforms(seed, trials, _DRAW_BASIS + 0) >= 0.5
    basis_b = rng.uniforms(seed, trials, _DRAW_BASIS + 1) >= 0.5

    # cumulative joint outcome tables per (state, basis_a, basis_b)
    tables = np.zeros((n_states * 4, 4))
    for s, cond in enumerate(conditionals):
        for ia, ba in enumerate(bases_enum):
            for ib, bb in enumerate(bases_enum):
                dist = joint_outcome_distribution(cond, [ba, bb])
                tables[(s * 2 + ia) * 2 + ib] = np.cumsum(dist)
    combo = (pat * 2 + basis_a) * 2 + basis_b
    out = _sample_outcomes(tables, combo, seed, trials)
    bit_a, bit_b = out >> 1, out & 1
    return pat, basis_a, basis_b, bit_a, bit_b


def bbm92_run(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> ProtocolStats:
    """BBM92 over the distribution circuit: per pair, sample the port pattern,
    measure both photons in random Z/X bases, sift on equal bases, and map
    Bob's bit through the pattern's reconciliation rule.  Ideal model, so the
    expected QBER is exactly zero for every noise setting."""
    if n_pairs <= 0:
        raise ValueError("n_pairs must be > 0")
    outcomes = run_distribution(noise_a, noise_b)
    live = [o for o in outcomes if o.probability > 0]
    probs = np.array([o.probability for o in live])
    psi_flag = np.array([o.reference == "psi_plus" for o in live])

    bases = (MeasurementBasis.Z, MeasurementBasis.X)
    pat, basis_a, basis_b, bit_a, bit_b = _two_party_trial_arrays(
        [o.conditional for o in live], probs, bases, n_pairs, seed
    )
    sifted = basis_a == basis_b
    flip = sifted & ~basis_a & psi_flag[pat]
    key_b = bit_b ^ flip
    errors = sifted & (bit_a != key_b)
    return _make_stats("bbm92", seed, sifted, errors, basis_a, [b.value for b in bases])


def bbm92_records(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> list[TrialRecord]:
    """Per-trial records for the exact same trials bbm92_run aggregates."""
    outcomes = run_distribution(noise_a, noise_b)
    live = [o for o in outcomes if o.probability > 0]
    probs = np.array([o.probability for o in live])
    psi_flag = [o.reference == "psi_plus" for o in live]
    slots = [o.slots for o in live]

    bases = (MeasurementBasis.Z, MeasurementBasis.X)
    arrays = _two_party_trial_arrays([o.conditional for o in live], probs, bases, n_pairs, seed)
    records = []
    for t, (p, ba, bb, a, b) in enumerate(zip(*(arr.tolist() for arr in arrays))):
        s = ba == bb
        err = None
        if s:
            flip = psi_flag[p] and not ba
            err = a != (b ^ flip)
        records.append(
            TrialRecord(
                trial=t,
                pattern=slots[p],
                bases=(bases[ba], bases[bb]),
                outcomes=(a, b),
                sifted=s,
                error=err,
            )
        )
    return records


def baseline_direct(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> ProtocolStats:
    """Contrast case: phi+ sent directly in polarization through the same
    collective noise, measured BBM92-style with no reconciliation available.
    The channel noise shows up as a nonzero QBER."""
    if n_pairs <= 0:
        raise ValueError("n_pairs must be > 0")
    registry = PathRegistry()
    port_a, port_b = registry.add("a"), registry.add("b")
    state = bell_state(BellStateId.PHI_PLUS, port_a, port_b)
    state = apply_element(state, 0, collective_noise(noise_a))
    state = apply_element(state, 1, collective_noise(noise_b))

    bases = (MeasurementBasis.Z, MeasurementBasis.X)
    _, basis_a, basis_b, bit_a, bit_b = _two_party_trial_arrays(
        [state], np.array([1.0]), bases, n_pairs, seed
    )
    sifted = basis_a == basis_b
    errors = sifted & (bit_a != bit_b)
    return _make_stats("baseline", seed, sifted, errors, basis_a, [b.value for b in bases])


# GHZ stabilizer signs for the (X, Y) basis pair: XXX -> +1, XYY/YXY/YYX -> -1.
_QSS_KEPT_XY = {
    (0, 0, 0): 0,  # XXX, even parity expected
    (0, 1, 1): 1,  # XYY
    (1, 0, 1): 1,  # YXY
    (1, 1, 0): 1,  # YYX
}

BASIS_PAIRS = {
    "xy": (MeasurementBasis.X, MeasurementBasis.Y),
    "zy": (MeasurementBasis.Z, MeasurementBasis.Y),
}


def qss_run(
    n_triples: int,
    noise: Sequence[NoiseParams],
    seed: int,
    basis_pair: str = "xy",
) -> ProtocolStats:
    """Three-party GHZ secret sharing over the distribution circuit.

    Port-pattern flips are reconciled first (each pattern's known local flips
    turn the conditional state into the plain GHZ state), then every party
    measures in a random basis from the pair.  With the "xy" pair the kept
    combinations are XXX/XYY/YXY/YYX and an error is an outcome parity that
    violates the GHZ stabilizer sign.  The "zy" pair has no key rule here; it
    keeps ZZZ trials and reports violations of the all-equal Z correlation.
    """
    if n_triples <= 0:
        raise ValueError("n_triples must be > 0")
    if len(noise) != 3:
        raise ValueError(f"qss needs exactly 3 noise params, got {len(noise)}")
    if basis_pair not in BASIS_PAIRS:
        raise ValueError(f"basis_pair must be one of {sorted(BASIS_PAIRS)}")
    bases = BASIS_PAIRS[basis_pair]

    outcomes = run_distribution_n(noise)
    live = [o for o in outcomes if o.probability > 0]
    probs = np.array([o.probability for o in live])
    corrected = [apply_correction(o.conditional, o.slots) for o in live]

    trials = np.arange(n_triples, dtype=np.uint64)
    pat = _sample_patterns(probs, seed, trials)
    basis_0, basis_1, basis_2 = (rng.uniforms(seed, trials, _DRAW_BASIS + j) >= 0.5 for j in range(3))

    tables = np.zeros((len(live) * 8, 8))
    for s, cond in enumerate(corrected):
        for combo in range(8):
            trio = [bases[(combo >> (2 - j)) & 1] for j in range(3)]
            tables[s * 8 + combo] = np.cumsum(joint_outcome_distribution(cond, trio))
    combo_idx = (basis_0 * 2 + basis_1) * 2 + basis_2
    out = _sample_outcomes(tables, pat * 8 + combo_idx, seed, trials)

    if basis_pair == "xy":
        kept = np.zeros(8, dtype=bool)
        parity_of = np.zeros(8, dtype=out.dtype)
        for (b0, b1, b2), exp_parity in _QSS_KEPT_XY.items():
            combo = (b0 * 2 + b1) * 2 + b2
            kept[combo], parity_of[combo] = True, exp_parity
        parity = ((out >> 2) ^ (out >> 1) ^ out) & 1
        sifted = kept[combo_idx]
        errors = sifted & (parity != parity_of[combo_idx])
    else:
        sifted = combo_idx == 0
        errors = sifted & (out != 0) & (out != 7)  # ZZZ outcomes must be all equal

    combo_names = ["".join(bases[(c >> (2 - j)) & 1].value for j in range(3)) for c in range(8)]
    return _make_stats("qss", seed, sifted, errors, combo_idx, combo_names)


@dataclass(frozen=True)
class SweepRow:
    theta_a: float
    phi_a: float
    theta_b: float
    phi_b: float
    scheme_qber: float
    baseline_qber: float
    success_prob: float


def qber_vs_theta_sweep(
    grid: Sequence[tuple[NoiseAngles, NoiseAngles]], n_pairs: int, seed: int
) -> list[SweepRow]:
    """Scheme-vs-baseline QBER over a grid of noise settings.

    Each row gets decorrelated child seeds so rows are independent while the
    whole table stays a pure function of the master seed.
    """
    if not grid:
        raise ValueError("sweep grid is empty")
    rows = []
    for i, (ang_a, ang_b) in enumerate(grid):
        pa, pb = ang_a.to_params(), ang_b.to_params()
        scheme = bbm92_run(n_pairs, pa, pb, rng.derive_seed(seed, 2 * i))
        base = baseline_direct(n_pairs, pa, pb, rng.derive_seed(seed, 2 * i + 1))
        success = sum(o.probability for o in run_distribution(pa, pb))
        rows.append(
            SweepRow(
                theta_a=ang_a.theta,
                phi_a=ang_a.phi,
                theta_b=ang_b.theta,
                phi_b=ang_b.phi,
                scheme_qber=scheme.qber if scheme.qber is not None else float("nan"),
                baseline_qber=base.qber if base.qber is not None else float("nan"),
                success_prob=success,
            )
        )
    return rows
