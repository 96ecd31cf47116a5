"""Monte-Carlo harnesses over distributed entangled states.

bbm92_run plays entanglement-based QKD over the noise-rejecting distribution
circuit; qss_run plays three-party GHZ secret sharing; baseline_direct sends
polarization entanglement straight through the same noise for contrast.  All
trial randomness comes from the counter-based generator in rng.py, so a run
is a pure function of its seed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import rng
from .distribution import apply_correction, ghz_state, run_distribution
from .elements import NoiseParams, NoiseAngles, collective_noise
from .qstate import H, Polarization, PureState, V, apply_element

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


# Draw-index layout per trial, documented so trials can be replayed.  The
# layout is stable: seeded results depend on it bit for bit, so a change to it
# changes every seeded output and must be announced.
_DRAW_PATTERN = 0
_DRAW_BASIS = 1      # party j uses draw _DRAW_BASIS + j
_DRAW_OUTCOME = 16



def _sample(
    cum_rows: np.ndarray, row_index, seed: int, trials: np.ndarray, draw: int
) -> np.ndarray:
    """One categorical draw per trial, from cumulative row cum_rows[row_index[t]].

    A scalar row_index draws every trial from that one row.  The draw is the
    number of thresholds the uniform u reaches, leaving out the last, which
    float rounding keeps within 1e-16 of 1: sum_k [u >= c_k] over k < last.
    Rows are cumsums of probabilities, so non-decreasing, and the count equals
    min(searchsorted(c, u, side="right"), last).
    """
    u = rng.uniforms(seed, trials, draw)
    last = cum_rows.shape[1] - 1
    out = np.zeros(len(u), dtype=np.min_scalar_type(last))
    for k in range(last):
        out += u >= cum_rows[:, k].take(row_index)
    return out


def _trials(
    states: Sequence[PureState],
    probs: np.ndarray,
    bases: Sequence[MeasurementBasis],
    n_trials: int,
    seed: int,
):
    """The trial core every protocol shares: a pattern over the live states
    (drawn only when more than one is live), one basis per photon, then the
    joint outcome.

    Returns (pattern, per-photon basis bools, table row, outcome).  True picks
    bases[1]; the row is the pattern followed by the basis bits in binary,
    photon 0 first; the outcome's most significant bit is photon 0.
    """
    trials = np.arange(n_trials, dtype=np.uint64)
    n = states[0].n_photons
    if len(states) > 1:
        pattern = _sample(np.cumsum(probs)[None], 0, seed, trials, _DRAW_PATTERN)
    else:
        pattern = np.zeros(n_trials, dtype=np.uint8)
    chosen = [rng.uniforms(seed, trials, _DRAW_BASIS + j) >= 0.5 for j in range(n)]
    tables = np.array(
        [
            np.cumsum(joint_outcome_distribution(state, combo))
            for state in states
            for combo in itertools.product(bases, repeat=n)
        ]
    )
    row = pattern.astype(np.intp)
    for basis in chosen:
        row *= 2
        row += basis
    return pattern, chosen, row, _sample(tables, row, seed, trials, _DRAW_OUTCOME)


_BBM92_BASES = (MeasurementBasis.Z, MeasurementBasis.X)


def _bbm92_trials(n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int):
    """BBM92 over the live patterns of the two-party distribution.

    Returns the live outcomes and, per trial, the pattern's index among them,
    both bases, both raw bits, whether the bases match (sifted) and whether
    the reconciled bits differ (errors).  psi+ anticorrelates in Z (and
    correlates in X), phi+ correlates in both, so Bob flips his bit exactly
    when the pattern's state is psi+ and the basis is Z.
    """
    live = [o for o in run_distribution(noise_a, noise_b) if o.probability > 0]
    psi_flag = np.array([o.reference == "psi_plus" for o in live])
    pat, (basis_a, basis_b), _, out = _trials(
        [o.conditional for o in live],
        np.array([o.probability for o in live]),
        _BBM92_BASES,
        n_pairs,
        seed,
    )
    bit_a, bit_b = out >> 1, out & 1
    sifted = basis_a == basis_b
    key_b = bit_b ^ (sifted & ~basis_a & psi_flag[pat])
    errors = sifted & (bit_a != key_b)
    return live, pat, basis_a, basis_b, bit_a, bit_b, sifted, errors


def bbm92_run(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> ProtocolStats:
    """BBM92 over the distribution circuit: per pair, sample the port pattern,
    measure both photons in random Z/X bases, sift on equal bases, and map
    Bob's bit through the pattern's reconciliation rule.  Ideal model, so the
    expected QBER is exactly zero for every noise setting."""
    if n_pairs <= 0:
        raise ValueError("n_pairs must be > 0")
    _, _, basis_a, _, _, _, sifted, errors = _bbm92_trials(n_pairs, noise_a, noise_b, seed)
    return _make_stats("bbm92", seed, sifted, errors, basis_a, [b.value for b in _BBM92_BASES])


def bbm92_records(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> list[TrialRecord]:
    """Per-trial records for the exact same trials bbm92_run aggregates."""
    live, *arrays = _bbm92_trials(n_pairs, noise_a, noise_b, seed)
    slots = [o.slots for o in live]
    bases = _BBM92_BASES
    return [
        TrialRecord(
            trial=t,
            pattern=slots[p],
            bases=(bases[ba], bases[bb]),
            outcomes=(a, b),
            sifted=s,
            error=e if s else None,
        )
        for t, (p, ba, bb, a, b, s, e) in enumerate(zip(*(arr.tolist() for arr in arrays)))
    ]


def baseline_direct(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> ProtocolStats:
    """Contrast case: phi+ sent directly in polarization through the same
    collective noise, measured BBM92-style with no reconciliation available.
    The channel noise shows up as a nonzero QBER."""
    if n_pairs <= 0:
        raise ValueError("n_pairs must be > 0")
    state = ghz_state((0, 1))
    state = apply_element(state, 0, collective_noise(noise_a))
    state = apply_element(state, 1, collective_noise(noise_b))

    _, (basis_a, basis_b), _, out = _trials([state], np.ones(1), _BBM92_BASES, n_pairs, seed)
    sifted = basis_a == basis_b
    errors = sifted & ((out >> 1) != (out & 1))
    return _make_stats("baseline", seed, sifted, errors, basis_a, [b.value for b in _BBM92_BASES])


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

    live = [o for o in run_distribution(*noise) if o.probability > 0]
    _, _, row, out = _trials(
        [apply_correction(o.conditional, o.slots) for o in live],
        np.array([o.probability for o in live]),
        bases,
        n_triples,
        seed,
    )
    combo_idx = row & 7

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
