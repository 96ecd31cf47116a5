"""End-to-end entanglement distribution: source, per-party pipelines, post-selection.

Builds the two-party (or N-party) setup, runs the frequency-entangled source
through per-channel polarization noise and the WDM / frequency-shifter /
half-wave-plate / PBS chain, then enumerates output-port patterns and reports
each pattern's probability, conditional polarization state, and fidelity with
its fixed reference Bell/GHZ state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .elements import (
    ElementOp,
    MixedNoiseWeights,
    NoiseParams,
    collective_noise,
    frequency_shifter,
    half_wave_plate,
    pbs,
    wdm,
)
from .qstate import (
    BasisLabel,
    H,
    PathId,
    PureState,
    V,
    W1,
    W2,
    apply_element,
    fidelity,
    project_paths,
    strip_frequency,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


# Party j owns paths 5j..5j+4: source, upper, lower, out1, out2.
_PORT_SUFFIXES = (":src", ":up", ":lo", "1", "2")


@dataclass(frozen=True)
class PartySetup:
    """One party's channel noise; its circuit paths follow from its index."""

    index: int
    noise: NoiseParams

    source = property(lambda self: 5 * self.index)
    upper = property(lambda self: 5 * self.index + 1)
    lower = property(lambda self: 5 * self.index + 2)
    out1 = property(lambda self: 5 * self.index + 3)
    out2 = property(lambda self: 5 * self.index + 4)


def port_name(path: PathId) -> str:
    """A path's circuit port name: a:src, a:up, a:lo, a1, a2 for party 0's paths 0..4."""
    party, port = divmod(path, len(_PORT_SUFFIXES))
    return chr(ord("a") + party) + _PORT_SUFFIXES[port]


def ghz_state(ports: Sequence[PathId], flips: Sequence[int] = ()) -> PureState:
    """(|x_1...x_n> + |y_1...y_n>)/sqrt(2) on the given ports, polarization only:
    x_j is V for the parties in ``flips`` and H for the rest, y_j its flip.
    The labels are plain tuples: the constructor checks them and returns its
    memoized BasisLabels."""
    branch = tuple((V if j in flips else H, None, p) for j, p in enumerate(ports))
    flipped = tuple((H if j in flips else V, None, p) for j, p in enumerate(ports))
    return PureState(len(ports), {branch: SQRT_HALF, flipped: SQRT_HALF})


@dataclass(frozen=True)
class DistributionOutcome:
    """One post-selection pattern of a distribution run."""

    pattern: tuple[PathId, ...]       # output path per party
    pattern_names: tuple[str, ...]    # port names for the above (a1, b2, ...)
    slots: tuple[int, ...]            # 1 for out1, 2 for out2, per party
    probability: float
    conditional: PureState | None     # polarization-only, frequency stripped
    reference: str                    # reference-state name
    fidelity: float | None
    flips: tuple[int, ...]            # parties flipped in the reference GHZ state


def source_state(paths: Sequence[PathId]) -> PureState:
    """The frequency-entangled all-H source state, one photon on each source path.

    n=2: (1/sqrt2)|H>|H>(|w1 w2> + |w2 w1>); for n>2 the frequency factor is
    (1/sqrt2)(|w1...w1 w2> + |w2...w2 w1>), the last party carrying the odd
    frequency.
    """
    n = len(paths)
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    branch1 = tuple(BasisLabel(H, W1 if i < n - 1 else W2, p) for i, p in enumerate(paths))
    branch2 = tuple(BasisLabel(H, W2 if i < n - 1 else W1, p) for i, p in enumerate(paths))
    return PureState(n, {branch1: SQRT_HALF, branch2: SQRT_HALF})


def build_pipeline(setup: PartySetup) -> list[ElementOp]:
    """One party's element chain: noise, WDM, FS on upper, HWP on lower, PBS."""
    return [
        collective_noise(setup.noise),
        wdm(setup.source, setup.upper, setup.lower),
        frequency_shifter(setup.upper),
        half_wave_plate(setup.lower),
        pbs(setup.upper, setup.lower, setup.out1, setup.out2),
    ]


def _patterns(setups: Sequence[PartySetup]):
    """All output-port patterns in lexicographic port order, with their port
    names and slot indices; each port is named once per run."""
    choices = [
        ((s.out1, port_name(s.out1), 1), (s.out2, port_name(s.out2), 2)) for s in setups
    ]
    for combo in itertools.product(*choices):
        yield tuple(zip(*combo))


def _collect_outcomes(final: PureState, setups: Sequence[PartySetup]) -> list[DistributionOutcome]:
    outcomes = []
    for ports, names, slots in _patterns(setups):
        prob, cond = project_paths(final, dict(enumerate(ports)))
        # The reference is the GHZ state with the pattern's local flips, named
        # psi_plus (exactly one party flips) or phi_plus for two parties.
        flips = correction_flips(slots)
        name = "ghz" if len(ports) > 2 else "psi_plus" if len(flips) == 1 else "phi_plus"
        if cond is not None:
            cond = strip_frequency(cond)
        outcomes.append(
            DistributionOutcome(
                pattern=ports,
                pattern_names=names,
                slots=slots,
                probability=prob,
                conditional=cond,
                reference=name,
                fidelity=None if cond is None else fidelity(cond, ghz_state(ports, flips)),
                flips=flips,
            )
        )
    return outcomes


def correction_flips(slots: Sequence[int]) -> tuple[int, ...]:
    """Parties flipped in this pattern's reference state: the conditional is
    the plain GHZ/phi+ state with their polarization flipped.

    All parties but the last flip when they exit port 2; the last party's
    frequency is anti-correlated with the others, so it flips on port 1.
    """
    n = len(slots)
    flips = [j for j in range(n - 1) if slots[j] == 2]
    if slots[n - 1] == 1:
        flips.append(n - 1)
    return tuple(flips)


def run_distribution(*noise: NoiseParams) -> list[DistributionOutcome]:
    """Distribution to one party per noise setting (at least 2) through pure
    collective noise.

    Returns the 2^N port patterns in lexicographic order.  For two parties the
    probabilities are (|alpha delta|^2, |alpha gamma|^2, |beta delta|^2,
    |beta gamma|^2) with conditional Bell states (psi+, phi+, phi+, psi+); for
    more, every conditional is a GHZ-class state.
    """
    setups = [PartySetup(j, p) for j, p in enumerate(noise)]
    state = source_state([s.source for s in setups])
    for setup in setups:
        for op in build_pipeline(setup):
            state = apply_element(state, setup.index, op)
    return _collect_outcomes(state, setups)


def run_distribution_mixed(w: MixedNoiseWeights) -> list[DistributionOutcome]:
    """Two-party distribution when the channel leaves a fully decohered
    polarization mixture (weights f1..f4 on HH, HV, VH, VV).

    Each mixture component is a pure run in which every party's channel is
    the identity (H) or the exact flip (V).  It routes deterministically to
    one port pattern, so every pattern's conditional state is pure and
    identical to the pure-noise case.
    """
    flips = itertools.product((NoiseParams.identity(), NoiseParams(0.0, 1.0)), repeat=2)
    live: dict[int, DistributionOutcome] = {}
    for weight, noise in zip(w.as_tuple(), flips):
        if weight == 0:
            continue
        outcomes = run_distribution(*noise)
        for i, o in enumerate(outcomes):
            if o.conditional is None:
                continue
            if i in live:
                raise RuntimeError("mixture components must route to distinct patterns")
            live[i] = replace(o, probability=weight * o.probability)
    # a pattern no component reaches keeps the last component's empty outcome
    return [live.get(i, o) for i, o in enumerate(outcomes)]


@dataclass(frozen=True)
class AnalyticRow:
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

