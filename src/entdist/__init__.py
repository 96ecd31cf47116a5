"""Entanglement distribution against collective polarization noise.

Photon pairs (or N-photon systems) entangled in frequency ride out arbitrary
collective polarization noise; per-party WDM + frequency-shifter + half-wave
plate + PBS stages convert the surviving frequency entanglement into definite
polarization Bell/GHZ states selected by the output-port pattern, with unit
total success probability.  This package simulates the circuit exactly and
runs seeded BBM92 / secret-sharing Monte Carlo on top of it.
"""

from .qstate import (
    BasisLabel,
    FrequencyMode,
    Polarization,
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
    polarization_flip,
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
    MeasurementBasis,
    ProtocolStats,
    TrialRecord,
    baseline_direct,
    bbm92_records,
    bbm92_run,
    qber_vs_theta_sweep,
    qss_run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
