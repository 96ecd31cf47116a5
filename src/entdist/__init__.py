"""Entanglement distribution against collective polarization noise.

Photon pairs (or N-photon systems) entangled in frequency ride out arbitrary
collective polarization noise; per-party WDM + frequency-shifter + half-wave
plate + PBS stages convert the surviving frequency entanglement into definite
polarization Bell/GHZ states selected by the output-port pattern, with unit
total success probability.  This package simulates the circuit exactly and
runs seeded BBM92 / secret-sharing Monte Carlo on top of it.
"""

from types import ModuleType as _ModuleType

from .qstate import (
    BasisLabel,
    PureState,
    apply_element,
    fidelity,
    inner_product,
    project_paths,
    strip_frequency,
)
from .elements import (
    ElementOp,
    MixedNoiseWeights,
    NoiseAngles,
    NoiseParams,
    UndefinedInputError,
    collective_noise,
    frequency_shifter,
    half_wave_plate,
    pbs,
    wdm,
)
from .distribution import (
    DistributionOutcome,
    build_pipeline,
    ghz_state,
    port_name,
    run_distribution,
    run_distribution_mixed,
    source_state,
)

# The Monte-Carlo names load protocols, and with it numpy, on first use.
_PROTOCOL_NAMES = (
    "ProtocolStats", "TrialRecord", "baseline_direct", "bbm92_records", "bbm92_run",
    "qber_vs_theta_sweep", "qss_run",
)


def __getattr__(name: str):
    if name in _PROTOCOL_NAMES:
        from . import protocols

        return getattr(protocols, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():  # so that dir() and help() list the names before they load
    return sorted({*globals(), *_PROTOCOL_NAMES})


# the names imported above and the protocol names; the submodules they bound stay out of import *
__all__ = sorted(
    [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType)]
    + list(_PROTOCOL_NAMES)
)
__version__ = "0.1.0"
