"""End-to-end entanglement distribution: source, per-party pipelines, post-selection.

Builds the two-party (or N-party) setup, runs the frequency-entangled source
through per-channel polarization noise and the WDM / frequency-shifter /
half-wave-plate / PBS chain, then enumerates output-port patterns and reports
each pattern's probability, conditional polarization state, and fidelity with
its fixed reference Bell/GHZ state.
"""
from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType
from typing import NamedTuple, Sequence

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


# Every party has these ports, in path order: source, upper, lower, out1, out2.
_PORT_SUFFIXES = (":src", ":up", ":lo", "1", "2")


def _party_paths(party: int) -> range:
    """The party's paths, one per port in _PORT_SUFFIXES order; party j's follow party j-1's."""
    return range(len(_PORT_SUFFIXES) * party, len(_PORT_SUFFIXES) * (party + 1))


def port_name(path: PathId) -> str:
    """A path's circuit port name: a:src, a:up, a:lo, a1, a2 for party 0's paths
    0..4, through z2 for path 129; parties past z have no name."""
    if path < 0:
        raise ValueError(f"path must be >= 0, got {path}")
    party, port = divmod(path, len(_PORT_SUFFIXES))
    if party >= 26:
        raise ValueError(f"path must be < 130 (parties a to z), got {path}")
    return chr(ord("a") + party) + _PORT_SUFFIXES[port]


def ghz_state(ports: Sequence[PathId], flips: Sequence[int] = ()) -> PureState:
    """(|x_1...x_n> + |y_1...y_n>)/sqrt(2) on the given ports, polarization only:
    x_j is V for the parties in ``flips`` and H for the rest, y_j its flip.
    The labels are plain tuples: the constructor checks them and returns its
    memoized BasisLabels."""
    branch = tuple((V if j in flips else H, None, p) for j, p in enumerate(ports))
    flipped = tuple((H if j in flips else V, None, p) for j, p in enumerate(ports))
    return _on_paths("ports", ports, branch, flipped)


def _on_paths(name: str, paths: Sequence[PathId], branch1: tuple, branch2: tuple) -> PureState:
    """(|branch1> + |branch2>)/sqrt(2); a ValueError names paths unless distinct and >= 0."""
    state = PureState(len(paths), {branch1: SQRT_HALF, branch2: SQRT_HALF})
    if len(set(paths)) < len(paths) or min(paths) < 0:  # after the labels' checks
        raise ValueError(f"{name} must be distinct and >= 0 (one photon per path), got {list(paths)}")
    return state


class DistributionOutcome(NamedTuple):
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
    return _on_paths("paths", paths, branch1, branch2)


def build_pipeline(party: int, noise: NoiseParams) -> list[ElementOp]:
    """The party's element chain: its noise, WDM, FS on upper, HWP on lower, PBS."""
    if party < 0:
        raise ValueError(f"party must be >= 0, got {party}")
    source, upper, lower, out1, out2 = _party_paths(party)
    return [
        collective_noise(noise),
        wdm(source, upper, lower),
        frequency_shifter(upper),
        half_wave_plate(lower),
        pbs(upper, lower, out1, out2),
    ]


_CIRCUITS_MAX = 8  # circuits (party counts) whose patterns are memoized per process


@functools.lru_cache(maxsize=_CIRCUITS_MAX)
def _port_patterns(n_parties: int) -> tuple:
    """Every output-port pattern of an n-party circuit, in lexicographic port
    order: (ports, port names, slots, flips, reference name, reference state,
    photon -> port map).  None of it depends on the noise, so it is derived
    once per circuit; the reference states and read-only maps are shared.

    The reference is the GHZ state with the pattern's local flips, named
    psi_plus (exactly one party flips) or phi_plus for two parties.
    """
    outs = (_party_paths(j)[-2:] for j in range(n_parties))  # each party's out1, out2
    choices = [((o1, port_name(o1), 1), (o2, port_name(o2), 2)) for o1, o2 in outs]
    patterns = []
    for combo in itertools.product(*choices):
        ports, names, slots = zip(*combo)
        flips = correction_flips(slots)
        name = "ghz" if len(ports) > 2 else "psi_plus" if len(flips) == 1 else "phi_plus"
        port_map = MappingProxyType(dict(enumerate(ports)))  # project_paths' pattern
        patterns.append((ports, names, slots, flips, name, ghz_state(ports, flips), port_map))
    return tuple(patterns)


def _collect_outcomes(final: PureState) -> list[DistributionOutcome]:
    # Every photon leaves its party at w2 (the WDM sends w2 to the lower arm,
    # the FS shifts the upper arm's w1 to w2), so the final state is stripped
    # once (strip_frequency checks that) and every pattern's conditional is
    # polarization-only.
    final = strip_frequency(final)
    outcomes = []
    for ports, names, slots, flips, name, reference, port_map in _port_patterns(final.n_photons):
        prob, cond = project_paths(final, port_map)
        fid = None if cond is None else fidelity(cond, reference)
        outcomes.append(DistributionOutcome(ports, names, slots, prob, cond, name, fid, flips))
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
    state = source_state([_party_paths(j)[0] for j in range(len(noise))])
    for j, p in enumerate(noise):
        for op in build_pipeline(j, p):
            state = apply_element(state, j, op)
    return _collect_outcomes(state)


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
    for weight, noise in zip(w, flips):
        if weight == 0:
            continue
        outcomes = run_distribution(*noise)
        for i, o in enumerate(outcomes):
            if o.conditional is None:
                continue
            if i in live:
                raise RuntimeError("mixture components must route to distinct patterns")
            live[i] = o._replace(probability=weight * o.probability)
    # a pattern no component reaches keeps the last component's empty outcome
    return [live.get(i, o) for i, o in enumerate(outcomes)]
