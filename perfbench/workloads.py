"""The benchmark's workloads: argv generators, units of work and exact counts.

A workload turns a workload seed into one CLI argv.  The program sees only
that argv; every angle and --seed in it comes from the workload seed, so the
same seed always gives the same request.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import canary
import checks

# Angles keep clear of 0 and pi/2, where a channel stops mixing and port
# patterns die: every pattern of every workload request stays live.
THETA_LO, THETA_HI = 0.1, math.pi / 2 - 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    units_per_request: int  # units of work, named per workload in BENCHMARK.json
    make_argv: Callable[[random.Random], list[str]]
    check: Callable[[list[str], str], None]
    canary: Callable[[], object]  # reference work timed around each request
    # Per-request span counts that do not depend on the workload seed.  A
    # traced run fails when one differs, so a wrapper that silently stopped
    # firing cannot read as a layer that costs nothing.
    exact_counts: dict[str, float]


def _angles(r: random.Random, parties: int) -> list[str]:
    argv = []
    for j in range(parties):
        argv += [checks.angle_flag(j, "theta"), repr(r.uniform(THETA_LO, THETA_HI))]
        argv += [checks.angle_flag(j, "phi"), repr(r.random() * math.tau)]
    return argv


def _ghz8(r: random.Random) -> list[str]:
    return ["distribute", "--parties", "8", "--format", "json", *_angles(r, 8)]


def _bbm92_1m(r: random.Random) -> list[str]:
    return [
        "bbm92", "--pairs", "1000000", "--format", "json",
        *_angles(r, 2), "--seed", str(r.randrange(2 ** 32)),
    ]


def _sweep_10x10(r: random.Random) -> list[str]:
    phi_a, phi_b = repr(r.random() * math.tau), repr(r.random() * math.tau)
    return [
        "sweep", "--theta-a-grid", "0:1.5:10", "--theta-b-grid", "0:1.5:10",
        "--phi-a-grid", f"{phi_a}:{phi_a}:1", "--phi-b-grid", f"{phi_b}:{phi_b}:1",
        "--pairs", "10000", "--seed", str(r.randrange(2 ** 32)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ghz8",
            units_per_request=256,
            make_argv=_ghz8,
            check=checks.check_distribute,
            canary=canary.python_work,
            exact_counts={
                "rng.calls": 0, "rng.draws": 0, "elements.ops_built": 40,
                "elements.expand_calls": 4590, "qstate.apply_calls": 40, "qstate.terms_max": 512,
                "qstate.project_calls": 256, "qstate.terms_scanned": 131072,
                "distribution.calls": 1, "distribution.patterns": 256, "distribution.live_ratio": 1.0,
                "protocols.tables_calls": 0, "protocols.calls": 0, "protocols.trials": 0,
            },
        ),
        Workload(
            name="bbm92_1m",
            units_per_request=1_000_000,
            make_argv=_bbm92_1m,
            check=checks.check_bbm92,
            canary=canary.numpy_work,
            exact_counts={
                "rng.calls": 4, "rng.draws": 4_000_000, "elements.ops_built": 10,
                "elements.expand_calls": 54, "qstate.apply_calls": 10, "qstate.terms_max": 8,
                "qstate.project_calls": 4, "qstate.terms_scanned": 32,
                "distribution.calls": 1, "distribution.patterns": 4, "distribution.live_ratio": 1.0,
                "protocols.tables_calls": 16, "protocols.calls": 1, "protocols.trials": 1_000_000,
            },
        ),
        Workload(
            name="sweep_10x10",
            units_per_request=2 * 100 * 10_000,
            make_argv=_sweep_10x10,
            check=checks.check_sweep,
            canary=canary.python_work,
            exact_counts={
                "rng.calls": 899, "rng.draws": 6_990_200, "elements.ops_built": 2200,
                "elements.expand_calls": 10556, "qstate.apply_calls": 2200, "qstate.terms_max": 8,
                "qstate.project_calls": 800, "qstate.terms_scanned": 5776,
                "distribution.calls": 300, "distribution.patterns": 800, "distribution.live_ratio": 0.9025,
                "protocols.tables_calls": 1844, "protocols.calls": 1, "protocols.trials": 2_000_000,
            },
        ),
    )
}


def argv_for(name: str, seed: int) -> list[str]:
    """The one request a run of workload `name` sends, derived from `seed`."""
    return WORKLOADS[name].make_argv(random.Random(f"{name}:{seed}"))
