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
from enum import Enum
from typing import Sequence

from .elements import (
    ElementOp,
    MixedNoiseWeights,
    NoiseParams,
    collective_noise,
    frequency_shifter,
    half_wave_plate,
    mixed_polarization_noise,
    pbs,
    polarization_flip,
    wdm,
)
from .qstate import (
    BasisLabel,
    H,
    PathId,
    PathRegistry,
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


@dataclass(frozen=True)
class PartySetup:
    """One party's channel noise and circuit paths."""

    index: int
    noise: NoiseParams
    source: PathId
    upper: PathId
    lower: PathId
    out1: PathId
    out2: PathId


def party_letter(index: int) -> str:
    return chr(ord("a") + index)


def register_party(registry: PathRegistry, index: int, noise: NoiseParams) -> PartySetup:
    """Register one party's five paths (named a:src, a:up, a:lo, a1, a2 for party 0)."""
    tag = party_letter(index)
    return PartySetup(
        index=index,
        noise=noise,
        source=registry.add(f"{tag}:src"),
        upper=registry.add(f"{tag}:up"),
        lower=registry.add(f"{tag}:lo"),
        out1=registry.add(f"{tag}1"),
        out2=registry.add(f"{tag}2"),
    )


class BellStateId(Enum):
    PSI_PLUS = "psi_plus"  # (|HV> + |VH>)/sqrt(2)
    PHI_PLUS = "phi_plus"  # (|HH> + |VV>)/sqrt(2)


def bell_state(bell: BellStateId, port_a: PathId, port_b: PathId) -> PureState:
    """The named Bell state on two ports as a polarization-only PureState."""
    la = lambda p: BasisLabel(p, None, port_a)
    lb = lambda p: BasisLabel(p, None, port_b)
    if bell is BellStateId.PSI_PLUS:
        amps = {(la(H), lb(V)): SQRT_HALF, (la(V), lb(H)): SQRT_HALF}
    else:
        amps = {(la(H), lb(H)): SQRT_HALF, (la(V), lb(V)): SQRT_HALF}
    return PureState(2, amps)


def ghz_state(ports: Sequence[PathId]) -> PureState:
    """(|H...H> + |V...V>)/sqrt(2) on the given ports."""
    all_h = tuple(BasisLabel(H, None, p) for p in ports)
    all_v = tuple(BasisLabel(V, None, p) for p in ports)
    return PureState(len(ports), {all_h: SQRT_HALF, all_v: SQRT_HALF})


# Fixed per-pattern reference assignment for two parties, not re-derived at runtime.
TWO_PARTY_REFERENCES: dict[tuple[int, int], BellStateId] = {
    (1, 1): BellStateId.PSI_PLUS,
    (1, 2): BellStateId.PHI_PLUS,
    (2, 1): BellStateId.PHI_PLUS,
    (2, 2): BellStateId.PSI_PLUS,
}


@dataclass(frozen=True)
class DistributionOutcome:
    """One post-selection pattern of a distribution run."""

    pattern: tuple[PathId, ...]       # output path per party
    pattern_names: tuple[str, ...]    # registry names for the above
    slots: tuple[int, ...]            # 1 for out1, 2 for out2, per party
    probability: float
    conditional: PureState | None     # polarization-only, frequency stripped
    reference: str                    # reference-state name
    fidelity: float | None


def source_state(n_parties: int, paths: Sequence[PathId] | None = None) -> PureState:
    """The frequency-entangled all-H source state for n parties.

    n=2: (1/sqrt2)|H>|H>(|w1 w2> + |w2 w1>); for n>2 the frequency factor is
    (1/sqrt2)(|w1...w1 w2> + |w2...w2 w1>), the last party carrying the odd
    frequency.
    """
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")
    if paths is None:
        paths = tuple(range(n_parties))
    if len(paths) != n_parties:
        raise ValueError("need one source path per party")
    branch1 = tuple(
        BasisLabel(H, W1 if i < n_parties - 1 else W2, paths[i]) for i in range(n_parties)
    )
    branch2 = tuple(
        BasisLabel(H, W2 if i < n_parties - 1 else W1, paths[i]) for i in range(n_parties)
    )
    return PureState(n_parties, {branch1: SQRT_HALF, branch2: SQRT_HALF})


def build_pipeline(setup: PartySetup) -> list[ElementOp]:
    """One party's element chain: noise, WDM, FS on upper, HWP on lower, PBS."""
    return [
        collective_noise(setup.noise),
        wdm(setup.source, setup.upper, setup.lower),
        frequency_shifter(setup.upper),
        half_wave_plate(setup.lower),
        pbs(setup.upper, setup.lower, setup.out1, setup.out2),
    ]


def _run_elements(state: PureState, setups: Sequence[PartySetup], *, with_noise: bool) -> PureState:
    for setup in setups:
        ops = build_pipeline(setup)
        if not with_noise:
            ops = ops[1:]
        for op in ops:
            state = apply_element(state, setup.index, op)
    return state


def _patterns(setups: Sequence[PartySetup]):
    """All output-port patterns in lexicographic port order, with slot indices."""
    choices = [((setup.out1, 1), (setup.out2, 2)) for setup in setups]
    for combo in itertools.product(*choices):
        ports = tuple(port for port, _ in combo)
        slots = tuple(slot for _, slot in combo)
        yield ports, slots


def _collect_outcomes(
    final: PureState,
    setups: Sequence[PartySetup],
    registry: PathRegistry,
) -> list[DistributionOutcome]:
    outcomes = []
    n = len(setups)
    for ports, slots in _patterns(setups):
        prob, cond = project_paths(final, dict(enumerate(ports)))
        if cond is not None:
            cond = strip_frequency(cond)
            ref_state, ref_name = _reference_for(slots, ports, n)
            fid = fidelity(cond, ref_state)
        else:
            _, ref_name = _reference_for(slots, ports, n)
            fid = None
        outcomes.append(
            DistributionOutcome(
                pattern=ports,
                pattern_names=tuple(registry.name_of(p) for p in ports),
                slots=slots,
                probability=prob,
                conditional=cond,
                reference=ref_name,
                fidelity=fid,
            )
        )
    return outcomes


def _reference_for(slots, ports, n_parties) -> tuple[PureState, str]:
    if n_parties == 2:
        bell = TWO_PARTY_REFERENCES[slots]
        return bell_state(bell, *ports), bell.value
    return ghz_reference(slots, ports), "ghz"


def correction_flips(slots: Sequence[int]) -> tuple[int, ...]:
    """Parties whose polarization must be flipped to turn the conditional
    state for this pattern into the plain GHZ/phi+ state.

    All parties but the last flip when they exit port 2; the last party's
    frequency is anti-correlated with the others, so it flips on port 1.
    """
    n = len(slots)
    flips = [j for j in range(n - 1) if slots[j] == 2]
    if slots[n - 1] == 1:
        flips.append(n - 1)
    return tuple(flips)


def ghz_reference(slots: Sequence[int], ports: Sequence[PathId]) -> PureState:
    """Per-pattern N-party reference: the GHZ state with the pattern's local flips."""
    flips = set(correction_flips(slots))
    branch1 = tuple(
        BasisLabel(V if j in flips else H, None, ports[j]) for j in range(len(ports))
    )
    branch2 = tuple(
        BasisLabel(H if j in flips else V, None, ports[j]) for j in range(len(ports))
    )
    return PureState(len(ports), {branch1: SQRT_HALF, branch2: SQRT_HALF})


def make_setups(noise: Sequence[NoiseParams]) -> tuple[PathRegistry, list[PartySetup]]:
    registry = PathRegistry()
    setups = [register_party(registry, i, p) for i, p in enumerate(noise)]
    return registry, setups


def run_distribution(*noise: NoiseParams) -> list[DistributionOutcome]:
    """Distribution to one party per noise setting (at least 2) through pure
    collective noise.

    Returns the 2^N port patterns in lexicographic order.  For two parties the
    probabilities are (|alpha delta|^2, |alpha gamma|^2, |beta delta|^2,
    |beta gamma|^2) with conditional Bell states (psi+, phi+, phi+, psi+); for
    more, every conditional is a GHZ-class state.
    """
    registry, setups = make_setups(noise)
    state = source_state(len(setups), tuple(s.source for s in setups))
    final = _run_elements(state, setups, with_noise=True)
    return _collect_outcomes(final, setups, registry)


def run_distribution_mixed(w: MixedNoiseWeights) -> list[DistributionOutcome]:
    """Two-party distribution when the channel leaves a fully decohered
    polarization mixture (weights f1..f4 on HH, HV, VH, VV).

    Each mixture component routes deterministically to one port pattern, so
    every pattern's conditional state is pure and identical to the pure-noise
    case.
    """
    registry, setups = make_setups([NoiseParams.identity(), NoiseParams.identity()])
    source = source_state(2, tuple(s.source for s in setups))
    live: dict[int, DistributionOutcome] = {}
    for weight, component in mixed_polarization_noise(w)(source).components:
        final = _run_elements(component, setups, with_noise=False)
        outcomes = _collect_outcomes(final, setups, registry)
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
    reference: BellStateId

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
        AnalyticRow((1, 1), a * d, BellStateId.PSI_PLUS),
        AnalyticRow((1, 2), a * g, BellStateId.PHI_PLUS),
        AnalyticRow((2, 1), b * d, BellStateId.PHI_PLUS),
        AnalyticRow((2, 2), b * g, BellStateId.PSI_PLUS),
    ]


def apply_correction(conditional: PureState, slots: Sequence[int]) -> PureState:
    """Flip the pattern's correction parties so the state becomes plain GHZ/phi+."""
    flip = polarization_flip()
    state = conditional
    for j in correction_flips(slots):
        state = apply_element(state, j, flip)
    return state
