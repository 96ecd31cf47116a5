"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import math
import time
from contextlib import contextmanager

import numpy as np

from entdist.cli import main
from entdist.distribution import (
    analytic_outcomes,
    bell_state,
    run_distribution,
    run_distribution_mixed,
)
from entdist.elements import MixedNoiseWeights, NoiseAngles, NoiseParams
from entdist.protocols import baseline_direct, bbm92_run, qss_run

TOL = 1e-12


def draw_noise(rand):
    return NoiseAngles(
        rand.uniform(0.0, math.pi / 2), rand.uniform(0.0, 2 * math.pi)
    ).to_params()


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_c1_port_probability_reproduction():
    rand = np.random.default_rng(101)
    with criterion(1, "exact port probabilities and Bell fidelities, 1000 draws", 5.0):
        refs = ("psi_plus", "phi_plus", "phi_plus", "psi_plus")
        for _ in range(1000):
            pa, pb = draw_noise(rand), draw_noise(rand)
            a, b, d, g = pa.alpha, pa.beta, pb.alpha, pb.beta
            expected = (
                abs(a * d) ** 2, abs(a * g) ** 2, abs(b * d) ** 2, abs(b * g) ** 2
            )
            outcomes = run_distribution(pa, pb)
            for outcome, prob, ref in zip(outcomes, expected, refs):
                assert abs(outcome.probability - prob) <= TOL
                assert outcome.reference == ref
                assert abs(outcome.fidelity - 1.0) <= TOL


def test_c2_unit_success_probability():
    rand = np.random.default_rng(202)
    with criterion(2, "total success probability 1 for pure, mixed and N-party noise", 10.0):
        for _ in range(1000):
            outcomes = run_distribution(draw_noise(rand), draw_noise(rand))
            assert abs(sum(o.probability for o in outcomes) - 1.0) <= TOL
        for _ in range(100):
            weights = rand.uniform(0.0, 1.0, size=4)
            weights /= weights.sum()
            outcomes = run_distribution_mixed(MixedNoiseWeights(*weights))
            assert abs(sum(o.probability for o in outcomes) - 1.0) <= TOL
        for n in (3, 4, 5):
            for _ in range(30):
                outcomes = run_distribution(*[draw_noise(rand) for _ in range(n)])
                assert abs(sum(o.probability for o in outcomes) - 1.0) <= TOL


def test_c3_mixed_noise_equivalence():
    rand = np.random.default_rng(303)
    with criterion(3, "mixed-noise conditionals identical to the pure-noise case, 100 draws"):
        from entdist.qstate import fidelity

        pure = run_distribution(draw_noise(rand), draw_noise(rand))
        for _ in range(100):
            weights = rand.uniform(0.05, 1.0, size=4)
            weights /= weights.sum()
            mixed = run_distribution_mixed(MixedNoiseWeights(*weights))
            for om, op_ in zip(mixed, pure):
                assert om.slots == op_.slots
                assert om.reference == op_.reference
                assert abs(fidelity(om.conditional, op_.conditional) - 1.0) <= TOL


def test_c4_bbm92_zero_qber():
    rand = np.random.default_rng(404)
    with criterion(4, "BBM92 QBER exactly 0 at 1e5 pairs for 20 noise settings", 30.0):
        n_pairs = 100000
        sigma3 = 3 * math.sqrt(0.25 / n_pairs)
        for setting in range(20):
            stats = bbm92_run(n_pairs, draw_noise(rand), draw_noise(rand), seed=setting)
            assert stats.n_errors == 0
            assert stats.qber == 0.0
            assert abs(stats.sift_rate - 0.5) < sigma3


def test_c5_qss_zero_qber():
    rand = np.random.default_rng(505)
    with criterion(5, "QSS (X,Y) QBER exactly 0 at 1e4 triples for 10 noise settings"):
        n_triples = 10000
        sigma3 = 3 * math.sqrt(0.25 / n_triples)
        for setting in range(10):
            noise = [draw_noise(rand) for _ in range(3)]
            stats = qss_run(n_triples, noise, seed=setting, basis_pair="xy")
            assert stats.n_errors == 0
            assert stats.qber == 0.0
            assert abs(stats.sift_rate - 0.5) < sigma3


def test_c6_baseline_contrast():
    with criterion(6, "direct transmission Z-basis error matches sin^2(theta)"):
        n_pairs = 100000
        for theta in (0.0, math.pi / 8, math.pi / 4):
            stats = baseline_direct(
                n_pairs,
                NoiseAngles(theta).to_params(),
                NoiseParams.identity(),
                seed=606,
            )
            expected = math.sin(theta) ** 2
            n_z = stats.sifted_by_basis["Z"]
            z_rate = stats.errors_by_basis["Z"] / n_z
            if expected == 0.0:
                assert z_rate == 0.0
            else:
                sigma3 = 3 * math.sqrt(expected * (1 - expected) / n_z)
                assert abs(z_rate - expected) < sigma3


def test_c7_oracle_equivalence():
    rand = np.random.default_rng(707)
    with criterion(7, "engine amplitudes equal closed-form coefficients, 1000 draws", 10.0):
        for _ in range(1000):
            pa, pb = draw_noise(rand), draw_noise(rand)
            outcomes = run_distribution(pa, pb)
            rows = analytic_outcomes(pa, pb)
            for outcome, row in zip(outcomes, rows):
                assert abs(outcome.probability - row.probability) <= TOL
                if outcome.conditional is None:
                    continue
                ref = bell_state(row.reference, *outcome.pattern)
                scale = math.sqrt(outcome.probability)
                for labels, ref_amp in ref.amplitudes.items():
                    engine_amp = outcome.conditional.amplitude(labels) * scale
                    assert abs(engine_amp - row.coefficient * ref_amp) <= TOL


def test_c8_determinism(tmp_path):
    with criterion(8, "repeated protocol commands give byte-identical output"):
        commands = {
            "bbm92.json": [
                "bbm92", "--pairs", "20000", "--seed", "7",
                "--theta-a", "0.8", "--phi-a", "1.2", "--theta-b", "0.3",
                "--format", "json",
            ],
            "qss.json": [
                "qss", "--triples", "5000", "--seed", "7",
                "--theta-a", "0.4", "--theta-b", "0.9", "--theta-3", "1.1",
                "--format", "json",
            ],
            "baseline.csv": [
                "baseline", "--pairs", "20000", "--seed", "7",
                "--theta-a", "0.6", "--theta-b", "0.1", "--format", "csv",
            ],
            "sweep.csv": [
                "sweep", "--theta-a-grid", "0:1.5:3", "--pairs", "2000",
                "--seed", "7",
            ],
        }
        for name, argv in commands.items():
            blobs = []
            for attempt in (1, 2):
                path = tmp_path / f"{attempt}-{name}"
                assert main(argv + ["--output", str(path)]) == 0
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1], f"{name} output differs between runs"
