"""Command-line front end.

Subcommands: distribute (analytic outcome table), bbm92 / qss / baseline
(Monte-Carlo protocol runs), sweep (scheme-vs-baseline QBER grid as CSV).
All outputs are deterministic given the full configuration including the
seed; machine-readable output is byte-stable across runs.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from .elements import NoiseAngles
from .distribution import run_distribution
from .protocols import (
    BASIS_PAIRS,
    ProtocolStats,
    baseline_direct,
    bbm92_run,
    qber_vs_theta_sweep,
    qss_run,
)

MAX_PARTIES = 8


class ConfigError(Exception):
    """Bad configuration; maps to exit code 2."""


def _fmt(x) -> str:
    if x is None:
        return "undefined"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def _round12(obj):
    """Clamp floats to 12 significant digits so JSON round-trips exactly."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_round12(obj), indent=2, sort_keys=True) + "\n"


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
            flag = _angle_flag(i, "theta" if "theta" in str(exc) else "phi")
            raise ConfigError(f"{flag}: {exc}") from exc
    return angles


def _add_angle_args(parser: argparse.ArgumentParser, max_party: int = 2) -> None:
    for i in range(max_party):
        parser.add_argument(_angle_flag(i, "theta"), dest=_angle_dest(i, "theta"), type=float)
        parser.add_argument(_angle_flag(i, "phi"), dest=_angle_dest(i, "phi"), type=float)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int)
    parser.add_argument("--format", choices=("table", "json", "csv"), dest="format")
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
    _add_common(p)

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


def _parse_grid(text: str, flag: str) -> list[float]:
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
    return [float(x) for x in np.linspace(start, stop, steps)]


def _stats_payload(stats: ProtocolStats, params: dict) -> dict:
    return {
        "protocol": stats.protocol,
        "params": params,
        "n_trials": stats.n_trials,
        "n_sifted": stats.n_sifted,
        "n_errors": stats.n_errors,
        "qber": stats.qber,
        "sift_rate": stats.sift_rate,
        "seed": stats.seed,
        "by_basis": {
            name: {
                "sifted": stats.sifted_by_basis[name],
                "errors": stats.errors_by_basis[name],
            }
            for name in stats.sifted_by_basis
        },
    }


def _stats_text(stats: ProtocolStats, params: dict, fmt: str) -> str:
    payload = _stats_payload(stats, params)
    if fmt == "json":
        return _dump_json(payload)
    if fmt == "csv":
        fields = ["protocol"]
        values = [stats.protocol]
        for key in sorted(params):
            fields.append(key)
            values.append(_fmt(params[key]))
        for key in ("n_trials", "n_sifted", "n_errors", "qber", "sift_rate", "seed"):
            fields.append(key)
            value = payload[key]
            values.append(_fmt(value) if value is not None else "nan")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        writer.writerow(values)
        return buf.getvalue()
    lines = [f"protocol    {stats.protocol}"]
    for key in sorted(params):
        lines.append(f"{key:<11} {_fmt(params[key])}")
    lines.append(f"n_trials    {stats.n_trials}")
    lines.append(f"n_sifted    {stats.n_sifted}")
    lines.append(f"n_errors    {stats.n_errors}")
    lines.append(f"qber        {_fmt(stats.qber)}")
    lines.append(f"sift_rate   {_fmt(stats.sift_rate)}")
    lines.append(f"seed        {stats.seed}")
    sift = " ".join(f"{k}={v}" for k, v in stats.sifted_by_basis.items())
    errs = " ".join(f"{k}={v}" for k, v in stats.errors_by_basis.items())
    lines.append(f"sifted_by_basis  {sift}")
    lines.append(f"errors_by_basis  {errs}")
    return "\n".join(lines) + "\n"


def cmd_distribute(args) -> int:
    n = args.parties
    if not 2 <= n <= MAX_PARTIES:
        raise ConfigError(f"--parties: must be between 2 and {MAX_PARTIES}, got {n}")
    for i in range(n, MAX_PARTIES):
        for which in ("theta", "phi"):
            dest = _angle_dest(i, which)
            if getattr(args, dest) is not None:
                name = args.config_keys.get(dest)
                where = f"--config: key {name!r}" if name else _angle_flag(i, which)
                raise ConfigError(f"{where}: party {i + 1} is beyond --parties {n}")
    angles = _party_angles(args, n)
    params = [a.to_params() for a in angles]
    outcomes = run_distribution(*params)
    total = sum(o.probability for o in outcomes)

    if args.format == "json":
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
        _write(_dump_json(payload), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["pattern", "probability", "reference", "fidelity"])
        for o in outcomes:
            writer.writerow(
                [
                    "+".join(o.pattern_names),
                    _fmt(o.probability),
                    o.reference,
                    _fmt(o.fidelity) if o.fidelity is not None else "",
                ]
            )
        _write(buf.getvalue(), args.output)
    else:
        width = max(
            len("pattern"), max(len("+".join(o.pattern_names)) for o in outcomes)
        )
        lines = [f"{'pattern':<{width + 2}}{'probability':<18}{'reference':<11}fidelity"]
        for o in outcomes:
            fid = _fmt(o.fidelity) if o.fidelity is not None else "-"
            lines.append(
                f"{'+'.join(o.pattern_names):<{width + 2}}"
                f"{_fmt(o.probability):<18}{o.reference:<11}{fid}"
            )
        lines.append(f"total probability: {_fmt(total)}")
        _write("\n".join(lines) + "\n", args.output)
    return 0


def _run_protocol(args, name: str) -> int:
    angles = _party_angles(args, 3 if name == "qss" else 2)
    noise = [a.to_params() for a in angles]
    if name == "bbm92":
        count = args.pairs
        if count <= 0:
            raise ConfigError(f"--pairs: must be > 0, got {count}")
        stats = bbm92_run(count, noise[0], noise[1], args.seed)
        params = {"pairs": count}
    elif name == "baseline":
        count = args.pairs
        if count <= 0:
            raise ConfigError(f"--pairs: must be > 0, got {count}")
        stats = baseline_direct(count, noise[0], noise[1], args.seed)
        params = {"pairs": count}
    else:
        count = args.triples
        if count <= 0:
            raise ConfigError(f"--triples: must be > 0, got {count}")
        stats = qss_run(count, noise, args.seed, args.basis_pair)
        params = {"triples": count, "basis_pair": args.basis_pair}
    for i, a in enumerate(angles):
        params[_angle_dest(i, "theta")] = a.theta
        params[_angle_dest(i, "phi")] = a.phi

    if stats.n_sifted == 0:
        print("warning: no sifted trials; qber undefined", file=sys.stderr)
    _write(_stats_text(stats, params, args.format), args.output)
    return 0


def cmd_sweep(args) -> int:
    grids = [
        _parse_grid(getattr(args, f"{w}_grid"), f"--{w.replace('_', '-')}-grid")
        for w in ("theta_a", "phi_a", "theta_b", "phi_b")
    ]
    if args.pairs <= 0:
        raise ConfigError(f"--pairs: must be > 0, got {args.pairs}")
    grid = []
    flags = ("--theta-a-grid", "--phi-a-grid", "--theta-b-grid", "--phi-b-grid")
    for ta in grids[0]:
        for fa in grids[1]:
            for tb in grids[2]:
                for fb in grids[3]:
                    try:
                        grid.append((NoiseAngles(ta, fa), NoiseAngles(tb, fb)))
                    except ValueError as exc:
                        bad = [flags[i] for i, v in enumerate((ta, fa, tb, fb)) if _angle_bad(i, v)]
                        raise ConfigError(f"{bad[0] if bad else 'grid'}: {exc}") from exc
    rows = qber_vs_theta_sweep(grid, args.pairs, args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["theta_a", "phi_a", "theta_b", "phi_b", "scheme_qber", "baseline_qber", "success_prob"]
    )
    for row in rows:
        writer.writerow(
            [
                _fmt(row.theta_a),
                _fmt(row.phi_a),
                _fmt(row.theta_b),
                _fmt(row.phi_b),
                _fmt(row.scheme_qber),
                _fmt(row.baseline_qber),
                _fmt(row.success_prob),
            ]
        )
    _write(buf.getvalue(), args.output)
    return 0


def _angle_bad(position: int, value: float) -> bool:
    if position in (0, 2):  # theta
        return not 0.0 <= value <= math.pi / 2
    return not 0.0 <= value < 2 * math.pi


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        if args.command == "distribute":
            return cmd_distribute(args)
        if args.command in ("bbm92", "qss", "baseline"):
            return _run_protocol(args, args.command)
        return cmd_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
