import math
from types import SimpleNamespace

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


def check_record_form(record, fields: tuple[str, ...]) -> None:
    """record has exactly these fields in this order, the Name(field=value, ...)
    repr, and no attribute, field or new, that can be assigned."""
    assert record._fields == fields
    values = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__name__}({values})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name, None))


@pytest.fixture
def rand() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture
def workers(monkeypatch):
    """workers(k) runs rng's block loops on k threads from then on, until the test ends."""
    from entdist import rng

    return lambda k: monkeypatch.setattr(rng, "_WORKERS", k)


@pytest.fixture
def thread_starts(monkeypatch):
    """Records the threads started through _thread.start_new_thread (as rng
    starts its helpers) until the test ends: .started lists each thread's
    function, and .returned each one that has returned."""
    import _thread

    starts, start = SimpleNamespace(started=[], returned=[]), _thread.start_new_thread

    def recording(function, args):
        def run():
            try:
                function(*args)
            finally:
                starts.returned.append(function)

        start(run, ())
        starts.started.append(function)

    monkeypatch.setattr(_thread, "start_new_thread", recording)
    return starts
