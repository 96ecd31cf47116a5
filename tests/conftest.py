import math

import numpy as np
import pytest
from hypothesis import settings

from entdist.elements import NoiseAngles, NoiseParams
from entdist.qstate import BasisLabel, H, PureState, V, W1, W2

# Every Hypothesis property draws the same examples on every run.
settings.register_profile("entdist", derandomize=True, deadline=None)
settings.load_profile("entdist")


def random_noise(rand: np.random.Generator) -> NoiseParams:
    return NoiseAngles(
        rand.uniform(0.0, math.pi / 2), rand.uniform(0.0, 2 * math.pi)
    ).to_params()


def random_state(rand: np.random.Generator, labels: list[tuple]) -> PureState:
    """Normalized random state over the given label tuples."""
    amps = rand.normal(size=len(labels)) + 1j * rand.normal(size=len(labels))
    amps /= np.linalg.norm(amps)
    n = len(labels[0])
    return PureState(n, dict(zip(labels, amps)))


def single_photon(
    polarization: str, frequency: str | None, path: int
) -> PureState:
    return PureState(1, {(BasisLabel(polarization, frequency, path),): 1.0})


def single_photon_labels(path: int = 0) -> list[tuple]:
    return [
        (BasisLabel(pol, freq, path),)
        for pol in (H, V)
        for freq in (W1, W2)
    ]


@pytest.fixture
def rand() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture
def workers(monkeypatch):
    """workers(k) runs rng's block loops on k threads from then on, through a
    pool of the test's own; the process's pool comes back when the test ends."""
    from entdist import rng

    monkeypatch.setattr(rng, "_pool", None)

    def use(k: int) -> None:
        if rng._pool is not None:
            rng._pool.shutdown()
            rng._pool = None
        monkeypatch.setattr(rng, "_WORKERS", k)

    yield use
    if rng._pool is not None:
        rng._pool.shutdown()
