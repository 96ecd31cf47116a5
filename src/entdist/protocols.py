"""Monte-Carlo harnesses over distributed entangled states.

bbm92_run plays entanglement-based QKD over the noise-rejecting distribution
circuit; qss_run plays three-party GHZ secret sharing; baseline_direct sends
polarization entanglement straight through the same noise for contrast.  All
trial randomness comes from the counter-based generator in rng.py, so a run
is a pure function of its seed.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple, Sequence

import numpy as np

from . import rng
from .distribution import SQRT_HALF, ghz_state, run_distribution
from .elements import NoiseParams, NoiseAngles, collective_noise
from .qstate import BASIS_PAIRS, H, PureState, V, apply_element

# The two orthonormal vectors of each measurement basis, as amplitude maps over
# H/V.  Bit 0 is the first vector (|H>, |+>, |+i>), bit 1 the second.
BASIS_VECTORS: dict[str, tuple[dict[str, complex], dict[str, complex]]] = {
    "Z": ({H: 1.0 + 0j}, {V: 1.0 + 0j}),
    "X": ({H: SQRT_HALF + 0j, V: SQRT_HALF + 0j}, {H: SQRT_HALF + 0j, V: -SQRT_HALF + 0j}),
    "Y": ({H: SQRT_HALF + 0j, V: 1j * SQRT_HALF}, {H: SQRT_HALF + 0j, V: -1j * SQRT_HALF}),
}
# Per basis and polarization, the (bit, conjugated coefficient) pairs a photon
# of that polarization spreads over.
_SPREADS = {
    basis: {
        pol: tuple((bit, v[pol].conjugate()) for bit, v in enumerate(vecs) if pol in v)
        for pol in (H, V)
    }
    for basis, vecs in BASIS_VECTORS.items()
}


def joint_outcome_distribution(state: PureState, bases: Sequence[str]) -> np.ndarray:
    """P(b_1..b_n) for measuring every photon in the named BASIS_VECTORS, as a
    2**n vector (b_1 is the most significant bit).  Equals the product of
    sequential Born factors."""
    n = state.n_photons
    if len(bases) != n:
        raise ValueError(f"need {n} bases, got {len(bases)}")
    try:
        spreads = [_SPREADS[b] for b in bases]
    except KeyError as exc:
        raise ValueError(f"unknown basis {exc.args[0]!r}, expected Z, X or Y") from None
    totals = [0j] * 2 ** n
    for labels, amp in state.amplitudes.items():
        # spread the term over the outcomes of photons 0..i, one photon at a time
        spread = [(0, amp)]
        for pairs, lab in zip(spreads, labels):
            spread = [
                (2 * idx + bit, term * coef)
                for idx, term in spread
                for bit, coef in pairs[lab.polarization]
            ]
        for idx, term in spread:
            totals[idx] += term
    return np.array([abs(total) ** 2 for total in totals])


class TrialRecord(NamedTuple):
    trial: int
    pattern: tuple[int, ...]        # out-port slot (1 or 2) per party; () for baseline
    bases: tuple[str, ...]          # "Z", "X" or "Y" per party
    outcomes: tuple[int, ...]       # raw bits, before any reconciliation
    sifted: bool
    error: bool | None              # None when the trial was not sifted


class ProtocolStats(NamedTuple):
    protocol: str
    n_trials: int
    n_sifted: int
    n_errors: int
    qber: float | None
    sift_rate: float
    seed: int
    sifted_by_basis: dict[str, int]
    errors_by_basis: dict[str, int]


def _make_stats(protocol, name, seed, counts, combos, kept, wrong) -> ProtocolStats:
    """Score a run from its count table: counts[row, out] trials, keyed by
    seed, had table row row (basis combo combos[row % len(combos)]) and
    outcome out.  A row is sifted when kept[row], its outcome an error when
    wrong[row, out]; the per-basis tallies group the rows by name(combo)."""
    names = [name(combos[r % len(combos)]) for r in range(len(kept))]
    per_row = counts.sum(axis=1)
    sifted, errors = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    for key, s, e in zip(names, (per_row * kept).tolist(), (counts * wrong).sum(axis=1).tolist()):
        sifted[key] += s
        errors[key] += e
    n_trials, n_sifted, n_errors = int(per_row.sum()), sum(sifted.values()), sum(errors.values())
    return ProtocolStats(
        protocol=protocol,
        n_trials=n_trials,
        n_sifted=n_sifted,
        n_errors=n_errors,
        qber=(n_errors / n_sifted) if n_sifted > 0 else None,
        sift_rate=n_sifted / n_trials,
        seed=seed,
        sifted_by_basis=sifted,
        errors_by_basis=errors,
    )


# Draw-index layout per trial, documented so trials can be replayed.  The
# layout is stable: seeded results depend on it bit for bit, so a change to it
# changes every seeded output and must be announced.
_DRAW_PATTERN = 0
_DRAW_BASIS = 1      # party j uses draw _DRAW_BASIS + j
_DRAW_OUTCOME = 16
_FAIR_BIT = np.array([[0.5, 1.0]])  # a basis bit: 1 when the draw's uniform reaches 0.5


def _ghz_outcomes(bases: Sequence[str], flips: Sequence[int]) -> set[int] | None:
    """The outcomes the GHZ state with the given parties flipped can give when
    photon j is measured in bases[j], or None when those bases carry no
    definite GHZ correlation.  Outcome bits as in joint_outcome_distribution.

    All Z: the flip mask or its complement.  X and Y only, with an even number
    k of Y: outcome parity k/2, plus one per flipped party measured in Y (a
    flip commutes with X and anticommutes with Y), mod 2.
    """
    n = len(bases)
    if all(b == "Z" for b in bases):
        mask = sum(1 << (n - 1 - j) for j in flips)
        return {mask, mask ^ (2 ** n - 1)}
    ys = [j for j, b in enumerate(bases) if b == "Y"]
    if "Z" in bases or len(ys) % 2:
        return None
    parity = (len(ys) // 2 + sum(j in flips for j in ys)) % 2
    return {out for out in range(2 ** n) if out.bit_count() % 2 == parity}


_RULES_MAX = 64  # (bases, photons, flips) keys whose sifting arrays are memoized per process


@functools.lru_cache(maxsize=_RULES_MAX)
def _sifting(bases: tuple[str, ...], n: int, flips: tuple[tuple[int, ...], ...]):
    """The basis combos of n photons, in table-row order, and the read-only
    sifting arrays of the states with the given flips: kept[row] and
    wrong[row, outcome], one rule per (state, combo) row."""
    combos = tuple(itertools.product(bases, repeat=n))
    rules = [_ghz_outcomes(combo, f) for f in flips for combo in combos]
    kept = np.array([rule is not None for rule in rules])
    wrong = np.array([[r is not None and o not in r for o in range(2 ** n)] for r in rules])
    kept.flags.writeable = wrong.flags.writeable = False
    return combos, kept, wrong


def _trials(
    states: Sequence[PureState],
    flips: Sequence[Sequence[int]],
    probs: np.ndarray,
    bases: Sequence[str],
    n_trials: int,
    seed: int,
):
    """The trial core every protocol shares: a pattern over the live states
    (drawn only when more than one is live), one basis per photon, then the
    joint outcome, scored against the GHZ state with the pattern's flips.

    Returns the per-trial pattern, row and outcome, then the run's tally
    (seed, counts, combos, kept, wrong) that _make_stats scores.  A trial's
    row is its table row: the pattern, then one bit per photon, 1 picking
    bases[1], photon 0 the most significant, as in the outcome.  seed is the
    checked int the trials were keyed by; counts[row, out] is the number of
    trials of each row and outcome, one np.bincount per rng block, summed
    as integers, so no count depends on the blocks or threads; combos, kept
    and wrong are _sifting's.
    """
    try:
        n_trials = operator.index(n_trials)  # an int or a numpy integer; never a float
    except TypeError:
        raise ValueError(f"n_trials must be an integer, got {n_trials!r}") from None
    if n_trials <= 0:
        raise ValueError(f"n_trials must be > 0, got {n_trials}")
    keys = rng.TrialKeys(seed, range(n_trials))
    n = states[0].n_photons
    if len(states) > 1:
        pattern = rng.sample(keys, _DRAW_PATTERN, np.cumsum(probs)[None])
    else:
        pattern = np.zeros(n_trials, dtype=np.uint8)
    # one table row per (state, combo): the pattern, then the basis bits in binary
    combos, kept, wrong = _sifting(tuple(bases), n, tuple(map(tuple, flips)))
    tables = np.cumsum(
        [joint_outcome_distribution(state, combo) for state in states for combo in combos], axis=1
    )
    # row indexes kept and counts, in the narrowest dtype that holds it; the
    # count index, (row << n) | out, is made per block in intp
    row = pattern.astype(np.min_scalar_type(len(kept)))
    for j in range(n):
        row <<= 1
        row += rng.sample(keys, _DRAW_BASIS + j, _FAIR_BIT)
    out = rng.sample(keys, _DRAW_OUTCOME, tables, row)
    size = len(kept) << n
    blocks = np.empty((-(-n_trials // rng._BLOCK), size), dtype=np.intp)

    def count(part: slice, _) -> None:
        index = row[part].astype(np.intp)
        index <<= n
        index |= out[part]
        blocks[part.start // rng._BLOCK] = np.bincount(index, minlength=size)

    rng._fork(n_trials, count)
    counts = blocks.sum(axis=0).reshape(len(kept), 2 ** n)
    return pattern, row, out, (keys.seed, counts, combos, kept, wrong)


def _distributed_trials(
    noise: Sequence[NoiseParams], bases: Sequence[str], n_trials: int, seed: int
):
    """_trials over the live port patterns of one distribution run; returns
    the live outcomes and what _trials returns."""
    live = [o for o in run_distribution(*noise) if o.probability > 0]
    states = [o.conditional for o in live]
    probs = np.array([o.probability for o in live])
    return live, _trials(states, [o.flips for o in live], probs, bases, n_trials, seed)


_BBM92_BASES = ("Z", "X")


def bbm92_run(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> ProtocolStats:
    """BBM92 over the distribution circuit: per pair, sample the port pattern,
    measure both photons in random Z/X bases, sift on equal bases, and score
    both bits against the pattern's Bell state.  Ideal model, so the expected
    QBER is exactly zero for every noise setting."""
    _, (*_, tally) = _distributed_trials((noise_a, noise_b), _BBM92_BASES, n_pairs, seed)
    return _make_stats("bbm92", operator.itemgetter(0), *tally)


def bbm92_records(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> list[TrialRecord]:
    """Per-trial records for the exact same trials bbm92_run aggregates."""
    live, (pattern, row, out, (_, _, combos, kept, wrong)) = _distributed_trials(
        (noise_a, noise_b), _BBM92_BASES, n_pairs, seed
    )
    slots = [o.slots for o in live]
    columns = (pattern, row % len(combos), out >> 1, out & 1, kept[row], wrong[row, out])
    return [
        TrialRecord(t, slots[p], combos[c], (a, b), s, e if s else None)
        for t, (p, c, a, b, s, e) in enumerate(zip(*(col.tolist() for col in columns)))
    ]


def baseline_direct(
    n_pairs: int, noise_a: NoiseParams, noise_b: NoiseParams, seed: int
) -> ProtocolStats:
    """Contrast case: phi+ sent directly in polarization through the same
    collective noise, measured BBM92-style and scored against phi+, with no
    reconciliation available.  The channel noise shows up as a nonzero QBER."""
    state = ghz_state((0, 1))
    state = apply_element(state, 0, collective_noise(noise_a))
    state = apply_element(state, 1, collective_noise(noise_b))

    *_, tally = _trials([state], [()], np.ones(1), _BBM92_BASES, n_pairs, seed)
    return _make_stats("baseline", operator.itemgetter(0), *tally)


def qss_run(
    n_triples: int,
    noise: Sequence[NoiseParams],
    seed: int,
    basis_pair: str = "xy",
) -> ProtocolStats:
    """Three-party GHZ secret sharing over the distribution circuit.

    Every party measures in a random basis from the pair, and each trial is
    scored against its pattern's GHZ state with that pattern's known flips.
    With the "xy" pair the kept combinations are XXX/XYY/YXY/YYX and an error
    is an outcome parity that violates the GHZ stabilizer sign.  The "zy" pair
    has no key rule here; it keeps ZZZ trials and reports violations of the Z
    correlation.
    """
    if len(noise) != 3:
        raise ValueError(f"qss needs exactly 3 noise params, got {len(noise)}")
    if basis_pair not in BASIS_PAIRS:
        raise ValueError(f"basis_pair must be one of {sorted(BASIS_PAIRS)}")

    _, (*_, tally) = _distributed_trials(noise, BASIS_PAIRS[basis_pair], n_triples, seed)
    return _make_stats("qss", "".join, *tally)


class SweepRow(NamedTuple):
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
