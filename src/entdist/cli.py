"""Command-line front end.

Subcommands: distribute (analytic outcome table), bbm92 / qss / baseline
(Monte-Carlo protocol runs), sweep (scheme-vs-baseline QBER grid as CSV).
All outputs are deterministic given the full configuration including the
seed; machine-readable output is byte-stable across runs.

COMMANDS is the one description of the CLI's options: each option's dest, kind,
default and choices.  The flags, the --config check, the defaults and the
option an error names all come from it.

Only the Monte-Carlo commands load numpy and the protocol layer, when they
run: importing this module, building the parser and a distribute run do not.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from .elements import NoiseAngles
from .distribution import run_distribution
from .qstate import BASIS_PAIRS, NORM_TOL, InvariantError

MAX_PARTIES = 8


class ConfigError(Exception):
    """Bad input or configuration; maps to exit code 2."""


def _invariant(holds: bool, what: str, *args) -> None:
    if not holds:  # the message is formatted only here: most checks run once per pattern or row
        raise InvariantError(what.format(*args))


def _fmt(x) -> str:
    if x is None:
        return "undefined"
    if isinstance(x, float):  # NaN formats as "nan"
        return format(x, ".12g")
    return str(x)


def _json_float(x: float) -> str:
    """x to 12 significant digits, so that the text round-trips exactly; NaN is null.
    A normal |x| < 1e11 skips the round trip: its .12g text has repr's digits
    (two decimals of at most 15 digits never give one normal double) and its
    notation (e-NN below 1e-4, no exponent below 1e12), bar an integral ".0"."""
    if sys.float_info.min <= abs(x) < 1e11:  # normal
        text = format(x, ".12g")
        return text if "." in text or "e" in text else text + ".0"
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(float(format(x, ".12g")))


_LEAF = {str: encode_basestring_ascii, float: _json_float, int: int.__repr__}  # by exact type


def _json_text(obj, newline: str) -> str:
    """obj as JSON text; newline is "\n" plus the indent of the line obj starts on.
    Each container is one join, its items of a _LEAF type written in place."""
    if isinstance(obj, dict):
        inner, items = newline + "  ", []
        for key in sorted(obj):
            leaf = _LEAF.get(type(value := obj[key]))
            text = leaf(value) if leaf else _json_text(value, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        inner = newline + "  "
        try:  # all str, or a TypeError at the first item that is not
            text = ("," + inner).join(map(encode_basestring_ascii, obj))
        except TypeError:
            items = [leaf(v) if (leaf := _LEAF.get(type(v))) else _json_text(v, inner) for v in obj]
            text = ("," + inner).join(items)
        return "[" + inner + text + newline + "]" if obj else "[]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):  # before int: bool is an int
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump_json(obj) -> str:
    """Canonical JSON text in one pass: floats to 12 significant digits, NaN as
    null, every object's keys sorted, indented by 2."""
    return _json_text(obj, "\n") + "\n"


def _emit(args, payload, rows, table) -> int:
    """Write a command's result as JSON (payload()), CSV (rows(), comma-joined:
    no cell needs quoting) or table lines (table()); only the format written is built."""
    if args.format == "json":
        text = _dump_json(payload())
    else:
        lines = map(",".join, rows()) if args.format == "csv" else table()
        text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{_where(args, 'output')}: {exc}") from exc
    return 0


class Option(NamedTuple):  # its flag is --dest with dashes for underscores
    dest: str
    kind: type  # int, float or str: what the flag parses and a config value must be
    default: object = None  # None leaves it unset: an unset angle is 0
    choices: tuple | None = None


def _angle_dests(n: int) -> list[str]:  # n parties: theta_a, phi_a, theta_b, phi_b, theta_3, ...
    return [f"{w}_{'ab'[i] if i < 2 else i + 1}" for i in range(n) for w in ("theta", "phi")]


def _options(head, n_angles: int = 0, formats=("table", "json", "csv")) -> tuple[Option, ...]:
    """A subcommand's options in flag order: its own, each party's angles, the common ones."""
    angles = [Option(dest, float) for dest in _angle_dests(n_angles)]
    common = [Option("seed", int, 0), Option("format", str, formats[0], formats)]
    return (*head, *angles, *common, Option("output", str))


_PARTIES = Option("parties", int, 2)
_PAIRS = Option("pairs", int, 100000)
_TRIPLES = Option("triples", int, 10000)
_BASIS_PAIR = Option("basis_pair", str, "xy", tuple(sorted(BASIS_PAIRS)))
_GRIDS = [Option(f"{dest}_grid", str, "0:0:1") for dest in _angle_dests(2)]
COMMANDS = {  # each subcommand's help and options
    "distribute": ("port-pattern probability/fidelity table", _options([_PARTIES], MAX_PARTIES)),
    "bbm92": ("BBM92 QKD Monte Carlo over the scheme", _options([_PAIRS], 2)),
    "qss": ("three-party GHZ secret sharing Monte Carlo", _options([_TRIPLES, _BASIS_PAIR], 3)),
    "baseline": ("direct polarization transmission contrast", _options([_PAIRS], 2)),
    "sweep": ("QBER vs noise-angle grid, CSV output", _options([*_GRIDS, _PAIRS], 0, ("csv",))),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement distribution against collective noise: "
        "analytic outcome tables and protocol Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for opt in options:
            metavar = "START:STOP:STEPS" if opt in _GRIDS else None
            p.add_argument(_flag(opt.dest), type=opt.kind, choices=opt.choices, metavar=metavar)
        p.add_argument("--config")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main parses with, built once per process: parsing leaves it unchanged."""
    return build_parser()


_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def _one_key_per_option(pairs) -> None:
    """Two keys for one option (a repeat, or both spellings) exit 2."""
    keys = {}
    for key, _ in pairs:
        dest = key.replace("-", "_")
        if dest in keys:
            raise ConfigError(f"--config: key {key!r}: option already set by key {keys[dest]!r}")
        keys[dest] = key


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then from the table's defaults;
    args.config_keys maps each option the config file set to its key."""
    args.config_keys = {}
    options = {opt.dest: opt for opt in COMMANDS[args.command][1]}
    if args.config is not None:
        objects = []  # each JSON object's key-value pairs as decoded: an enclosing one comes last
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh, object_pairs_hook=lambda p: objects.append(p) or dict(p))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8, JSON or int
            raise ConfigError(f"--config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("--config: expected a flat JSON object")
        _one_key_per_option(objects[-1])  # only the top level's keys are options
        for key, value in loaded.items():
            dest = key.replace("-", "_")
            if dest not in options:
                raise ConfigError(f"--config: unknown key {key!r} for {args.command}")
            opt, where = options[dest], f"--config: key {key!r}"
            kinds, expected = _KINDS[opt.kind]  # the JSON values of each kind, as errors name them
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{where}: expected {expected}, got {json.dumps(value)}")
            value = opt.kind(value)
            if opt.choices is not None and value not in opt.choices:
                choices = ", ".join(map(repr, opt.choices))
                raise ConfigError(f"{where}: invalid choice {value!r} (choose from {choices})")
            if getattr(args, dest) is None:
                setattr(args, dest, value)
                args.config_keys[dest] = key
    for opt in options.values():
        if getattr(args, opt.dest) is None:
            setattr(args, opt.dest, opt.default)


def _where(args, dest: str) -> str:
    """How an error names an option: its --config key if the file set it, else its flag."""
    key = args.config_keys.get(dest)
    return f"--config: key {key!r}" if key else _flag(dest)


def _require(args, dest: str, holds: bool, rule: str) -> None:
    if not holds:
        raise ConfigError(f"{_where(args, dest)}: must be {rule}, got {getattr(args, dest)}")


def _angle(args, dest: str, value: float) -> float:
    """value, for the angle (or angle grid) option dest, range-checked on its own field."""
    try:
        NoiseAngles(**{"theta": 0.0, dest.split("_")[0]: value})
    except ValueError as exc:
        raise ConfigError(f"{_where(args, dest)}: {exc}") from exc
    return value


def _party_angles(args, n_parties: int) -> list[NoiseAngles]:
    values = [_angle(args, dest, getattr(args, dest) or 0.0) for dest in _angle_dests(n_parties)]
    return [NoiseAngles(theta, phi) for theta, phi in zip(values[::2], values[1::2])]


def _hold(where: str, n: int, what: str) -> None:
    """Exit 2 naming where unless n uint64s can be allocated: a sweep's grid values or points."""
    import numpy as np

    try:
        np.empty(n, dtype=np.uint64)  # left untouched: a size too large fails before a run
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{where}: cannot hold {n} {what} in memory") from exc


def _count(args, dest: str) -> int:
    """A trial count in [1, 2**64], the trial indices a 64-bit counter has."""
    n = getattr(args, dest)
    _require(args, dest, n > 0, "> 0")
    _require(args, dest, n <= 2**64, "<= 2**64")
    return n


def _parse_grid(args, dest: str) -> list[float]:
    """START:STOP:STEPS for a sweep grid option, each value range-checked by _angle."""
    text = getattr(args, dest)
    flag = _where(args, dest)
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
    _hold(flag, steps, "grid values")
    import numpy as np  # the sweep digest pins linspace's grid values

    return [_angle(args, dest, float(x)) for x in np.linspace(start, stop, steps)]


def cmd_distribute(args) -> int:
    n = args.parties
    _require(args, "parties", 2 <= n <= MAX_PARTIES, f"between 2 and {MAX_PARTIES}")
    for i, dest in enumerate(_angle_dests(MAX_PARTIES)[2 * n :], start=2 * n):
        if getattr(args, dest) is not None:
            raise ConfigError(f"{_where(args, dest)}: party {i // 2 + 1} is beyond --parties {n}")
    angles = _party_angles(args, n)
    outcomes = run_distribution(*(a.to_params() for a in angles))
    total = sum(o.probability for o in outcomes)
    _invariant(abs(total - 1.0) <= NORM_TOL, "total probability {!r} is not 1", total)
    for o in outcomes:
        fid = 1.0 if o.fidelity is None else o.fidelity
        _invariant(abs(fid - 1.0) <= NORM_TOL, "{} fidelity {!r} is not 1", o.pattern_names, fid)

    def payload():
        return {
            "command": "distribute",
            "parties": n,
            "noise": [{"theta": a.theta, "phi": a.phi} for a in angles],
            "outcomes": [
                {
                    "pattern": o.pattern_names,
                    "probability": o.probability,
                    "reference": o.reference,
                    "fidelity": o.fidelity,
                }
                for o in outcomes
            ],
            "success_probability": total,
            "seed": args.seed,
        }

    def rows():
        # A dead pattern has no fidelity: "" in CSV, "-" in the table.
        return [["pattern", "probability", "reference", "fidelity"]] + [
            [
                "+".join(o.pattern_names),
                _fmt(o.probability),
                o.reference,
                "" if o.fidelity is None else _fmt(o.fidelity),
            ]
            for o in outcomes
        ]

    def table():
        cells = rows()
        width = max(len(row[0]) for row in cells) + 2
        prob_width = max(18, max(len(row[1]) for row in cells) + 1)
        lines = [
            f"{pat:<{width}}{prob:<{prob_width}}{ref:<11}{fid or '-'}" for pat, prob, ref, fid in cells
        ]
        lines.append(f"total probability: {_fmt(total)}")
        return lines

    return _emit(args, payload, rows, table)


_STAT_KEYS = ("n_trials", "n_sifted", "n_errors", "qber", "sift_rate", "seed")


def _run_protocol(args, name: str) -> int:
    from .protocols import baseline_direct, bbm92_run, qss_run  # loads numpy on first use

    angles = _party_angles(args, 3 if name == "qss" else 2)
    noise = [a.to_params() for a in angles]
    unit = "triples" if name == "qss" else "pairs"
    count = _count(args, unit)
    params = {unit: count}
    if name == "bbm92":
        stats = bbm92_run(count, noise[0], noise[1], args.seed)
    elif name == "baseline":
        stats = baseline_direct(count, noise[0], noise[1], args.seed)
    else:
        stats = qss_run(count, noise, args.seed, args.basis_pair)
        params["basis_pair"] = args.basis_pair
    if name == "bbm92" or params.get("basis_pair") == "xy":
        _invariant(stats.qber in (None, 0.0), "{} qber {!r} is not 0", name, stats.qber)
    values = [v for a in angles for v in (a.theta, a.phi)]
    params.update(zip(_angle_dests(len(angles)), values))

    if stats.n_sifted == 0:
        print("warning: no sifted trials; qber undefined", file=sys.stderr)
    counts = {key: getattr(stats, key) for key in _STAT_KEYS}
    record = {"protocol": stats.protocol, **dict(sorted(params.items())), **counts}
    sifted, errors = stats.sifted_by_basis, stats.errors_by_basis

    def payload():
        return {
            "protocol": stats.protocol,
            "params": params,
            **counts,
            "by_basis": {b: {"sifted": n, "errors": errors[b]} for b, n in sifted.items()},
        }

    def rows():
        return [list(record), ["nan" if v is None else _fmt(v) for v in record.values()]]

    def table():
        return [
            *(f"{key:<11} {_fmt(v)}" for key, v in record.items()),
            "sifted_by_basis  " + " ".join(f"{b}={n}" for b, n in sifted.items()),
            "errors_by_basis  " + " ".join(f"{b}={n}" for b, n in errors.items()),
        ]

    return _emit(args, payload, rows, table)


def cmd_sweep(args) -> int:
    from .protocols import SweepRow, qber_vs_theta_sweep  # loads numpy on first use

    grids = [_parse_grid(args, opt.dest) for opt in _GRIDS]
    points = math.prod(map(len, grids))  # probed before itertools.product builds the rows
    _hold(" * ".join(_where(args, opt.dest) for opt in _GRIDS), points, "sweep points")
    pairs = _count(args, "pairs")
    grid = [
        (NoiseAngles(ta, fa), NoiseAngles(tb, fb))
        for ta, fa, tb, fb in itertools.product(*grids)
    ]
    sweep = qber_vs_theta_sweep(grid, pairs, args.seed)
    for row in sweep:
        prob, qber = row.success_prob, row.scheme_qber
        _invariant(abs(prob - 1.0) <= NORM_TOL, "{}: success_prob is not 1", row)
        _invariant(qber == 0.0 or math.isnan(qber), "{}: scheme_qber is not 0", row)

    def rows():
        return [list(SweepRow._fields)] + [[_fmt(v) for v in row] for row in sweep]

    return _emit(args, None, rows, None)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_config(args)
        _require(args, "seed", 0 <= args.seed < 2**64, "in [0, 2**64)")  # 64-bit generator keys
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
