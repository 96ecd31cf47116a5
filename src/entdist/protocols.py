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
from typing import Iterable, NamedTuple, Sequence

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
_PLANS_MAX = 256  # (bases, labels) keys whose spread plans are memoized per process


@functools.lru_cache(maxsize=_PLANS_MAX)
def _spread_plan(bases: tuple[str, ...], labels: tuple):
    """The (frequency, path) mode of each photon of a term with these labels,
    and the (outcome, (c_0, c_1, ...)) pairs, in outcome order, that the term
    spreads over; c_j is a _SPREADS coefficient."""
    plan = [(0, ())]
    for basis, label in zip(bases, labels):
        spread = _SPREADS[basis][label.polarization]
        plan = [(2 * i + bit, cs + (c,)) for i, cs in plan for bit, c in spread]
    return tuple((label.frequency, label.path) for label in labels), tuple(plan)


def joint_outcome_distribution(state: PureState, bases: Sequence[str]) -> np.ndarray:
    """P(b_1..b_n) for measuring every photon in the named BASIS_VECTORS, as a
    2**n vector (b_1 is the most significant bit).  Equals the product of
    sequential Born factors.  Each term, in the state's order, adds amp * c_0 *
    c_1 ... (multiplied left to right, c_j photon j's conjugated basis
    coefficient) to its outcomes' totals; P is abs(total) ** 2.  A photon whose
    terms differ in frequency or path (modes that cannot interfere) is a ValueError."""
    n = state.n_photons
    if len(bases) != n:
        raise ValueError(f"need {n} bases, got {len(bases)}")
    bases = tuple(bases)
    for basis in bases:
        if not isinstance(basis, str) or basis not in _SPREADS:
            raise ValueError(f"unknown basis {basis!r}, expected Z, X or Y")
    totals, first = [0j] * 2 ** n, None
    for labels, amp in state.amplitudes.items():
        modes, plan = _spread_plan(bases, labels)
        if modes != (first := first or modes):  # first: the first term's modes
            j = next(j for j, (a, b) in enumerate(zip(modes, first)) if a != b)
            raise ValueError(f"photon {j} is in a superposition of frequencies or paths")
        for idx, coefs in plan:
            term = amp
            for coef in coefs:
                term *= coef
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
    names = list(map(name, combos)) * (len(kept) // len(combos))
    sifted, errors = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    per_row, bad = counts.sum(axis=1).tolist(), counts.sum(axis=1, where=wrong).tolist()
    for key, k, s, e in zip(names, kept.tolist(), per_row, bad):
        if k:
            sifted[key] += s
            errors[key] += e
    n_trials, n_sifted, n_errors = sum(per_row), sum(sifted.values()), sum(errors.values())
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
_SPAN = 2**20  # trials _trials keys, draws and counts at a time: 32 rng blocks, about 20 MiB


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
    whole: bool = False,
):
    """The trial core every protocol shares: a pattern over the live states
    (drawn only when more than one is live), one basis per photon, then the
    joint outcome, scored against the GHZ state with the pattern's flips.

    Any n_trials in [1, 2**64] (64-bit trial indices) is keyed, drawn and
    counted in spans of _SPAN trials, or in one span when whole, so memory is
    bounded.  Returns the last span's per-trial pattern, row and outcome, then
    the run's tally (seed, counts, combos, kept, wrong) that _make_stats
    scores.  A trial's row is its table row: the pattern, then one bit per
    photon, 1 picking bases[1], photon 0 the most significant, as in the
    outcome.  seed is the checked int the trials were keyed by; counts[row,
    out] sums one np.bincount per rng block as integers, so no count depends on
    the spans, blocks or threads; combos, kept and wrong are _sifting's.
    """
    try:
        n_trials = operator.index(n_trials)  # an int or a numpy integer; never a float
    except TypeError:
        raise ValueError(f"n_trials must be an integer, got {n_trials!r}") from None
    if not 0 < n_trials <= 2**64:
        raise ValueError(f"n_trials must be {'> 0' if n_trials <= 0 else '<= 2**64'}, got {n_trials}")
    n = states[0].n_photons
    # one table row per (state, combo): the pattern, then the basis bits in binary
    combos, kept, wrong = _sifting(tuple(bases), n, tuple(map(tuple, flips)))
    tables = np.cumsum(
        [joint_outcome_distribution(state, combo) for state in states for combo in combos], axis=1
    )
    size, span = len(kept) << n, n_trials if whole else _SPAN
    for lo in range(0, n_trials, span):
        keys = rng.TrialKeys(seed, range(lo, min(lo + span, n_trials)))
        if len(states) > 1:
            pattern = rng.sample(keys, _DRAW_PATTERN, np.cumsum(probs)[None])
        else:
            pattern = np.zeros(keys.mixed.size, dtype=np.uint8)
        # row indexes kept and counts, and the count index (row << n) | out, made
        # per block, each in the narrowest dtype that holds it
        row = pattern.astype(np.min_scalar_type(len(kept)))
        for j in range(n):
            row <<= 1
            row += rng.sample(keys, _DRAW_BASIS + j, _FAIR_BIT)
        out = rng.sample(keys, _DRAW_OUTCOME, tables, row)
        blocks = np.empty((-(-row.size // rng._BLOCK), size), dtype=np.intp)

        def count(part: slice, _) -> None:
            index = row[part].astype(np.min_scalar_type(size))
            index <<= n
            index |= out[part]
            blocks[part.start // rng._BLOCK] = np.bincount(index, minlength=size)

        rng._fork(row.size, count)
        counts = blocks.sum(axis=0) if lo == 0 else counts + blocks.sum(axis=0)
    counts = counts.reshape(len(kept), 2 ** n)  # tables and _sifting ran once, for every span
    return pattern, row, out, (keys.seed, counts, combos, kept, wrong)


def _distributed_trials(
    noise: Sequence[NoiseParams], bases: Sequence[str], n_trials: int, seed: int, whole=False
):
    """_trials over the live port patterns of one distribution run; returns
    the live outcomes and what _trials returns."""
    live = [o for o in run_distribution(*noise) if o.probability > 0]
    states = [o.conditional for o in live]
    probs = np.array([o.probability for o in live])
    return live, _trials(states, [o.flips for o in live], probs, bases, n_trials, seed, whole)


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
    """Per-trial records for the exact same trials bbm92_run aggregates, drawn
    in one span: O(n_pairs) memory."""
    live, (pattern, row, out, (_, _, combos, kept, wrong)) = _distributed_trials(
        (noise_a, noise_b), _BBM92_BASES, n_pairs, seed, whole=True
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
    if not isinstance(basis_pair, str) or basis_pair not in BASIS_PAIRS:
        raise ValueError(f"basis_pair must be one of {sorted(BASIS_PAIRS)}, got {basis_pair!r}")

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
    grid: Iterable[tuple[NoiseAngles, NoiseAngles]], n_pairs: int, seed: int
) -> list[SweepRow]:
    """Scheme-vs-baseline QBER over a grid of noise settings.

    Each row gets decorrelated child seeds so rows are independent while the
    whole table stays a pure function of the master seed.
    """
    rows = []
    for i, (ang_a, ang_b) in enumerate(grid):
        pa, pb = ang_a.to_params(), ang_b.to_params()
        scheme = bbm92_run(n_pairs, pa, pb, rng.derive_seed(seed, 2 * i))
        base = baseline_direct(n_pairs, pa, pb, rng.derive_seed(seed, 2 * i + 1))
        success = sum(o.probability for o in run_distribution(pa, pb))
        qbers = [float("nan") if stats.qber is None else stats.qber for stats in (scheme, base)]
        rows.append(SweepRow(ang_a.theta, ang_a.phi, ang_b.theta, ang_b.phi, *qbers, success))
    if not rows:  # an empty sequence, iterator or generator
        raise ValueError("sweep grid is empty")
    return rows
