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
    AnalyticRow,
    DistributionOutcome,
    PartySetup,
    analytic_outcomes,
    build_pipeline,
    ghz_state,
    port_name,
    run_distribution,
    run_distribution_mixed,
    source_state,
)
from .protocols import (
    ProtocolStats,
    TrialRecord,
    baseline_direct,
    bbm92_records,
    bbm92_run,
    qber_vs_theta_sweep,
    qss_run,
)

# the names imported above; the submodules they bound stay out of import *
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))
__version__ = "0.1.0"
