"""Command-line front end.

Subcommands: distribute (analytic outcome table), bbm92 / qss / baseline
(Monte-Carlo protocol runs), sweep (scheme-vs-baseline QBER grid as CSV).
All outputs are deterministic given the full configuration including the
seed; machine-readable output is byte-stable across runs.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .elements import NoiseAngles
from .distribution import run_distribution
from .protocols import (
    BASIS_PAIRS,
    SweepRow,
    baseline_direct,
    bbm92_run,
    qber_vs_theta_sweep,
    qss_run,
)

MAX_PARTIES = 8
INVARIANT_TOL = 1e-9  # allowed |success probability - 1| and |fidelity - 1|


class ConfigError(Exception):
    """Bad input or configuration; maps to exit code 2."""


class InvariantError(Exception):
    """A result the model rules out (lost probability, an inexact delivered
    state, a nonzero scheme QBER); maps to exit code 1."""


def _invariant(holds: bool, what: str) -> None:
    if not holds:
        raise InvariantError(what)


def _fmt(x) -> str:
    if x is None:
        return "undefined"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def _round12(obj):
    """Clamp floats to 12 significant digits so JSON round-trips exactly, and
    order every object's keys, so the JSON text is canonical."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_round12(obj), indent=2) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _emit(args, payload, rows, table) -> int:
    """Write a command's result as JSON (payload), CSV (rows) or table lines."""
    if args.format == "json":
        text = _dump_json(payload)
    elif args.format == "csv":
        text = _csv(rows)
    else:
        text = "\n".join(table) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{_where(args, 'output', '--output')}: {exc}") from exc
    return 0


def _angle_flag(party_index: int, which: str) -> str:
    if party_index == 0:
        return f"--{which}-a"
    if party_index == 1:
        return f"--{which}-b"
    return f"--{which}-{party_index + 1}"


def _angle_dest(party_index: int, which: str) -> str:
    return _angle_flag(party_index, which).lstrip("-").replace("-", "_")


def _party_angles(args, n_parties: int) -> list[NoiseAngles]:
    angles = []
    for i in range(n_parties):
        theta = getattr(args, _angle_dest(i, "theta"), None) or 0.0
        phi = getattr(args, _angle_dest(i, "phi"), None) or 0.0
        try:
            angles.append(NoiseAngles(theta, phi))
        except ValueError as exc:
            which = "theta" if "theta" in str(exc) else "phi"
            where = _where(args, _angle_dest(i, which), _angle_flag(i, which))
            raise ConfigError(f"{where}: {exc}") from exc
    return angles


def _add_angle_args(parser: argparse.ArgumentParser, max_party: int = 2) -> None:
    for i in range(max_party):
        parser.add_argument(_angle_flag(i, "theta"), dest=_angle_dest(i, "theta"), type=float)
        parser.add_argument(_angle_flag(i, "phi"), dest=_angle_dest(i, "phi"), type=float)


def _add_common(parser: argparse.ArgumentParser, formats=("table", "json", "csv")) -> None:
    parser.add_argument("--seed", type=int)
    parser.add_argument("--format", choices=formats, dest="format")
    parser.add_argument("--output")
    parser.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distribution against collective noise: "
        "analytic outcome tables and protocol Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distribute", help="port-pattern probability/fidelity table")
    p.add_argument("--parties", type=int)
    _add_angle_args(p, MAX_PARTIES)
    _add_common(p)

    p = sub.add_parser("bbm92", help="BBM92 QKD Monte Carlo over the scheme")
    p.add_argument("--pairs", type=int)
    _add_angle_args(p, 2)
    _add_common(p)

    p = sub.add_parser("qss", help="three-party GHZ secret sharing Monte Carlo")
    p.add_argument("--triples", type=int)
    p.add_argument("--basis-pair", choices=sorted(BASIS_PAIRS), dest="basis_pair")
    _add_angle_args(p, 3)
    _add_common(p)

    p = sub.add_parser("baseline", help="direct polarization transmission contrast")
    p.add_argument("--pairs", type=int)
    _add_angle_args(p, 2)
    _add_common(p)

    p = sub.add_parser("sweep", help="QBER vs noise-angle grid, CSV output")
    for which in ("theta-a", "phi-a", "theta-b", "phi-b"):
        p.add_argument(
            f"--{which}-grid", dest=f"{which.replace('-', '_')}_grid", metavar="START:STOP:STEPS"
        )
    p.add_argument("--pairs", type=int)
    _add_common(p, formats=("csv",))
    p.set_defaults(format="csv")

    return parser


_DEFAULTS = {
    "seed": 0,
    "format": "table",
    "parties": 2,
    "pairs": 100000,
    "triples": 10000,
    "basis_pair": "xy",
    "theta_a_grid": "0:0:1",
    "phi_a_grid": "0:0:1",
    "theta_b_grid": "0:0:1",
    "phi_b_grid": "0:0:1",
}


def _command_options(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The options a config file may set for one subcommand, by dest."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest: a
        for a in commands.choices[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }


_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), None: ((str,), "a string")}


def _config_value(key: str, value, action: argparse.Action):
    """A config value checked as argparse checks the flag: JSON kind, type, choices."""
    kinds, expected = _JSON_KINDS[action.type]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"--config: key {key!r}: expected {expected}, got {json.dumps(value)}")
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ConfigError(f"--config: key {key!r}: invalid choice {value!r} (choose from {choices})")
    return value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset options from the config file, then from built-in defaults.

    args.config_keys maps each option the config file set to its key.
    """
    args.config_keys = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("--config: expected a flat JSON object")
        options = _command_options(parser, args.command)
        for key, value in loaded.items():
            attr = key.replace("-", "_")
            if attr not in options:
                raise ConfigError(f"--config: unknown key {key!r} for {args.command}")
            value = _config_value(key, value, options[attr])
            if getattr(args, attr) is None:
                setattr(args, attr, value)
                args.config_keys[attr] = key
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _where(args, dest: str, flag: str) -> str:
    """How an error names an option: its --config key if the file set it, else its flag."""
    key = args.config_keys.get(dest)
    return f"--config: key {key!r}" if key else flag


def _parse_grid(args, which: str) -> list[float]:
    """START:STOP:STEPS for the --<which>-grid flag, each value range-checked by NoiseAngles."""
    text = getattr(args, f"{which}_grid")
    flag = _where(args, f"{which}_grid", f"--{which.replace('_', '-')}-grid")
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag}: expected START:STOP:STEPS, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if steps < 1:
        raise ConfigError(f"{flag}: steps must be >= 1, got {steps}")
    values = [float(x) for x in np.linspace(start, stop, steps)]
    angle = which.split("_")[0]
    try:
        for value in values:
            NoiseAngles(**{"theta": 0.0, angle: value})
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    return values


def cmd_distribute(args) -> int:
    n = args.parties
    if not 2 <= n <= MAX_PARTIES:
        where = _where(args, "parties", "--parties")
        raise ConfigError(f"{where}: must be between 2 and {MAX_PARTIES}, got {n}")
    for i in range(n, MAX_PARTIES):
        for which in ("theta", "phi"):
            dest = _angle_dest(i, which)
            if getattr(args, dest) is not None:
                where = _where(args, dest, _angle_flag(i, which))
                raise ConfigError(f"{where}: party {i + 1} is beyond --parties {n}")
    angles = _party_angles(args, n)
    outcomes = run_distribution(*(a.to_params() for a in angles))
    total = sum(o.probability for o in outcomes)
    _invariant(abs(total - 1.0) <= INVARIANT_TOL, f"total probability {total!r} is not 1")
    for o in outcomes:
        fid = 1.0 if o.fidelity is None else o.fidelity
        _invariant(abs(fid - 1.0) <= INVARIANT_TOL, f"{o.pattern_names} fidelity {fid!r} is not 1")

    payload = {
        "command": "distribute",
        "parties": n,
        "noise": [{"theta": a.theta, "phi": a.phi} for a in angles],
        "outcomes": [
            {
                "pattern": list(o.pattern_names),
                "probability": o.probability,
                "reference": o.reference,
                "fidelity": o.fidelity,
            }
            for o in outcomes
        ],
        "success_probability": total,
        "seed": args.seed,
    }
    # A dead pattern has no fidelity: "" in CSV, "-" in the table.
    rows = [["pattern", "probability", "reference", "fidelity"]] + [
        [
            "+".join(o.pattern_names),
            _fmt(o.probability),
            o.reference,
            "" if o.fidelity is None else _fmt(o.fidelity),
        ]
        for o in outcomes
    ]
    width = max(len(row[0]) for row in rows) + 2
    prob_width = max(18, max(len(row[1]) for row in rows) + 1)
    table = [
        f"{pat:<{width}}{prob:<{prob_width}}{ref:<11}{fid or '-'}" for pat, prob, ref, fid in rows
    ]
    table.append(f"total probability: {_fmt(total)}")
    return _emit(args, payload, rows, table)


_STAT_KEYS = ("n_trials", "n_sifted", "n_errors", "qber", "sift_rate", "seed")


def _run_protocol(args, name: str) -> int:
    angles = _party_angles(args, 3 if name == "qss" else 2)
    noise = [a.to_params() for a in angles]
    unit = "triples" if name == "qss" else "pairs"
    count = getattr(args, unit)
    if count <= 0:
        raise ConfigError(f"{_where(args, unit, f'--{unit}')}: must be > 0, got {count}")
    params = {unit: count}
    if name == "bbm92":
        stats = bbm92_run(count, noise[0], noise[1], args.seed)
    elif name == "baseline":
        stats = baseline_direct(count, noise[0], noise[1], args.seed)
    else:
        stats = qss_run(count, noise, args.seed, args.basis_pair)
        params["basis_pair"] = args.basis_pair
    if name == "bbm92" or params.get("basis_pair") == "xy":
        _invariant(stats.qber in (None, 0.0), f"{name} qber {stats.qber!r} is not 0")
    for i, a in enumerate(angles):
        params[_angle_dest(i, "theta")] = a.theta
        params[_angle_dest(i, "phi")] = a.phi

    if stats.n_sifted == 0:
        print("warning: no sifted trials; qber undefined", file=sys.stderr)
    counts = {key: getattr(stats, key) for key in _STAT_KEYS}
    record = {"protocol": stats.protocol, **dict(sorted(params.items())), **counts}
    sifted, errors = stats.sifted_by_basis, stats.errors_by_basis
    payload = {
        "protocol": stats.protocol,
        "params": params,
        **counts,
        "by_basis": {b: {"sifted": n, "errors": errors[b]} for b, n in sifted.items()},
    }
    rows = [list(record), ["nan" if v is None else _fmt(v) for v in record.values()]]
    table = [f"{key:<11} {_fmt(v)}" for key, v in record.items()]
    table.append("sifted_by_basis  " + " ".join(f"{b}={n}" for b, n in sifted.items()))
    table.append("errors_by_basis  " + " ".join(f"{b}={n}" for b, n in errors.items()))
    return _emit(args, payload, rows, table)


def cmd_sweep(args) -> int:
    grids = [_parse_grid(args, w) for w in ("theta_a", "phi_a", "theta_b", "phi_b")]
    if args.pairs <= 0:
        raise ConfigError(f"{_where(args, 'pairs', '--pairs')}: must be > 0, got {args.pairs}")
    grid = [
        (NoiseAngles(ta, fa), NoiseAngles(tb, fb))
        for ta, fa, tb, fb in itertools.product(*grids)
    ]
    sweep = qber_vs_theta_sweep(grid, args.pairs, args.seed)
    for row in sweep:
        prob, qber = row.success_prob, row.scheme_qber
        _invariant(abs(prob - 1.0) <= INVARIANT_TOL, f"{row}: success_prob is not 1")
        _invariant(qber == 0.0 or math.isnan(qber), f"{row}: scheme_qber is not 0")
    rows = [[f.name for f in dataclasses.fields(SweepRow)]] + [
        [_fmt(v) for v in dataclasses.astuple(row)] for row in sweep
    ]
    return _emit(args, None, rows, None)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        if not 0 <= args.seed < 2**64:  # the generator takes 64-bit seeds only
            where = _where(args, "seed", "--seed")
            raise ConfigError(f"{where}: must be in [0, 2**64), got {args.seed}")
        if args.command == "distribute":
            return cmd_distribute(args)
        if args.command in ("bbm92", "qss", "baseline"):
            return _run_protocol(args, args.command)
        return cmd_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
