"""Output checks for the benchmark workloads, built on independent oracles.

None of these imports entdist: every expected value is computed here from
the request's argv alone, so an engine defect cannot hide behind itself.
A check raises OutputError (or the ValueError/KeyError/TypeError/IndexError
a malformed output provokes) on the first problem it finds.
"""
from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math

PROB_TOL = 1e-9
SIGMAS = 6.0
SWEEP_HEADER = [
    "theta_a", "phi_a", "theta_b", "phi_b", "scheme_qber", "baseline_qber", "success_prob",
]


class OutputError(ValueError):
    """A request's stdout is not the correct answer to its argv."""


def flag_values(argv: list[str]) -> dict[str, str]:
    """The --flag value pairs of an argv (every workload flag takes one value)."""
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def angle_flag(party: int, which: str) -> str:
    """The CLI flag naming one party's angle: -a, -b, then -3, -4, ..."""
    suffix = "ab"[party] if party < 2 else str(party + 1)
    return f"--{which}-{suffix}"


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


def check_distribute(argv: list[str], out: str) -> None:
    """N-party outcome table against the closed-form product probabilities.

    Pattern slot 1 is port <party>1, reached with probability cos^2(theta_j);
    slot 2 with sin^2(theta_j).  Every pattern must be live with unit fidelity.
    """
    flags = flag_values(argv)
    n = int(flags["--parties"])
    thetas = [float(flags[angle_flag(j, "theta")]) for j in range(n)]
    doc = json.loads(out)
    outcomes = doc["outcomes"]
    _require(len(outcomes) == 2 ** n, f"{len(outcomes)} outcomes, expected {2 ** n}")
    letters = [chr(ord("a") + j) for j in range(n)]
    seen = set()
    total = 0.0
    for row in outcomes:
        names = row["pattern"]
        _require([name[:-1] for name in names] == letters, f"pattern {names} names the wrong parties")
        slots = tuple(int(name[-1]) for name in names)
        _require(set(slots) <= {1, 2}, f"pattern {names} has a port other than 1 or 2")
        seen.add(slots)
        expected = math.prod(
            math.cos(t) ** 2 if s == 1 else math.sin(t) ** 2 for t, s in zip(thetas, slots)
        )
        prob = row["probability"]
        _require(
            abs(prob - expected) <= PROB_TOL,
            f"pattern {names}: probability {prob!r}, closed form {expected!r}",
        )
        _require(prob > 0, f"pattern {names} is dead, but every theta is strictly inside (0, pi/2)")
        fid = row["fidelity"]
        _require(
            fid is not None and abs(fid - 1.0) <= PROB_TOL,
            f"pattern {names}: fidelity {fid!r}, expected 1",
        )
        total += prob
    _require(len(seen) == 2 ** n, f"only {len(seen)} distinct patterns")
    _require(abs(total - 1.0) <= PROB_TOL, f"probabilities sum to {total!r}")
    success = doc["success_probability"]
    _require(abs(success - 1.0) <= PROB_TOL, f"success_probability {success!r}")


def check_bbm92(argv: list[str], out: str) -> None:
    """BBM92 over the scheme: zero errors, consistent counts, sift rate ~ 1/2."""
    flags = flag_values(argv)
    doc = json.loads(out)
    n = int(flags["--pairs"])
    _require(doc["protocol"] == "bbm92", f"protocol {doc['protocol']!r}")
    _require(doc["seed"] == int(flags["--seed"]), f"seed {doc['seed']!r} is not the requested one")
    _require(doc["n_trials"] == n, f"n_trials {doc['n_trials']!r}, expected {n}")
    _require(doc["n_errors"] == 0, f"n_errors {doc['n_errors']!r}, expected 0")
    _require(doc["qber"] == 0, f"qber {doc['qber']!r}, expected exactly 0")
    by_basis = doc["by_basis"].values()
    n_sifted = doc["n_sifted"]
    _require(sum(b["sifted"] for b in by_basis) == n_sifted, "per-basis sifted counts do not sum to n_sifted")
    _require(sum(b["errors"] for b in by_basis) == doc["n_errors"], "per-basis errors do not sum to n_errors")
    rate = doc["sift_rate"]
    _require(abs(rate - n_sifted / n) <= PROB_TOL, f"sift_rate {rate!r} is not n_sifted / n_trials")
    sigma = math.sqrt(0.25 / n)
    _require(abs(rate - 0.5) <= SIGMAS * sigma, f"sift_rate {rate!r} is over {SIGMAS:g} sigma from 1/2")


def _grid(text: str) -> list[float]:
    start, stop, steps = text.split(":")
    a, b, k = float(start), float(stop), int(steps)
    return [a] if k == 1 else [a + (b - a) * i / (k - 1) for i in range(k)]


def _channel(theta: float, phi: float):
    """Rows of the channel unitary: |H> -> (a, b), |V> -> (-conj b, conj a)."""
    a, b = math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)
    return ((a, -b.conjugate()), (b, a.conjugate()))


def baseline_error_rate(theta_a: float, phi_a: float, theta_b: float, phi_b: float) -> float:
    """Expected QBER of phi+ sent straight through both channels and measured
    BBM92-style: the mean of the Z/Z and X/X disagreement probabilities."""
    ua, ub = _channel(theta_a, phi_a), _channel(theta_b, phi_b)
    amp = [
        [(ua[i][0] * ub[j][0] + ua[i][1] * ub[j][1]) / math.sqrt(2) for j in range(2)]
        for i in range(2)
    ]
    q_z = abs(amp[0][1]) ** 2 + abs(amp[1][0]) ** 2
    sign = ((1, 1), (1, -1))  # <+| and <-| in the H/V basis, times sqrt(2)
    x_amp = [
        [sum(sign[k][i] * sign[m][j] * amp[i][j] for i in range(2) for j in range(2)) / 2 for m in range(2)]
        for k in range(2)
    ]
    q_x = abs(x_amp[0][1]) ** 2 + abs(x_amp[1][0]) ** 2
    return (q_z + q_x) / 2


def check_sweep(argv: list[str], out: str) -> None:
    """Sweep CSV: every grid point in lexicographic order, zero scheme QBER,
    unit success, and a baseline QBER within binomial noise of the oracle.

    The binomial variance is floored at one error count, so that rows where
    well under one error is expected may still show the odd error.
    """
    flags = flag_values(argv)
    grids = [_grid(flags.get(f"--{w}-grid", "0:0:1")) for w in ("theta-a", "phi-a", "theta-b", "phi-b")]
    n_sifted = int(flags["--pairs"]) / 2
    rows = list(csv.reader(io.StringIO(out)))
    _require(rows[:1] == [SWEEP_HEADER], f"header {rows[:1]!r}")
    points = list(itertools.product(*grids))
    _require(len(rows) - 1 == len(points), f"{len(rows) - 1} rows, expected {len(points)}")
    for i, (row, point) in enumerate(zip(rows[1:], points), start=1):
        values = [float(v) for v in row]
        _require(
            all(abs(v - p) <= PROB_TOL for v, p in zip(values[:4], point)),
            f"row {i} is {row[:4]}, grid order expects {list(point)}",
        )
        scheme, baseline, success = values[4:]
        _require(scheme == 0, f"row {i}: scheme_qber {row[4]}, expected exactly 0")
        _require(abs(success - 1.0) <= PROB_TOL, f"row {i}: success_prob {row[6]}")
        q = baseline_error_rate(*point)
        sigma = math.sqrt((n_sifted * q * (1 - q) + 1) / n_sifted ** 2)
        _require(
            abs(baseline - q) <= SIGMAS * sigma,
            f"row {i}: baseline_qber {row[5]}, oracle {q:.6g} +- {SIGMAS:g} x {sigma:.3g}",
        )
