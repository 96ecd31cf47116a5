"""Optical elements and channels as single-photon label-rewrite rules.

Each ElementOp is a sparse linear map over (polarization, frequency, path)
labels.  Rule inputs and outputs may leave fields as None: a None input field
matches any value, and a None output field copies the matched input's value.
That lets path- and frequency-independent elements (the collective-noise
unitary, for one) stay finite rule tables no matter how many paths a circuit
uses.  Each built-in table is normalized and checked once per process and
element arguments, and every op built from it shares its ``expand`` memo of
checked state labels; a rule dict passed to ``ElementOp`` is compiled for that
op alone.
"""
from __future__ import annotations

import cmath
import functools
import math
import struct
from types import MappingProxyType
from typing import NamedTuple

from .qstate import (
    ALGEBRA_TOL,
    NORM_TOL,
    BasisLabel,
    H,
    PathId,
    V,
    W1,
    W2,
    _check_label,
    _instance,
    _integer,
    _mapping,
)

Rule = tuple[BasisLabel, complex]


class UndefinedInputError(ValueError):
    """An element was applied to a label outside its declared support."""


def _matches(pattern: BasisLabel, label: BasisLabel) -> bool:
    return (
        (pattern.polarization is None or pattern.polarization == label.polarization)
        and (pattern.frequency is None or pattern.frequency == label.frequency)
        and (pattern.path is None or pattern.path == label.path)
    )


def _fill(out: BasisLabel, label: BasisLabel) -> BasisLabel:
    return BasisLabel(
        out.polarization if out.polarization is not None else label.polarization,
        out.frequency if out.frequency is not None else label.frequency,
        out.path if out.path is not None else label.path,
    )


class ElementOp:
    """Single-photon isometry given by explicit rules plus optional passthrough.

    Labels matching no rule are identity-mapped when ``passthrough`` is true
    and are outside the op's support otherwise (applying the op there raises
    UndefinedInputError).  Column orthonormality over the explicit rules is
    checked when the rules are compiled: a rule dict once per op, a built-in
    table (a ``_Table``) once per process, its read-only ``rules`` mapping and
    ``expand`` memo shared by every op built from it.
    """

    __slots__ = ("name", "rules", "passthrough", "_expanded")

    def __init__(
        self,
        name: str,
        rules: dict[BasisLabel, tuple[Rule, ...]] | _Table,
        *,
        passthrough: bool = False,
    ):
        self.name = name
        self.passthrough = passthrough
        self.rules, self._expanded = rules if type(rules) is _Table else _compile(name, rules)

    def expand(self, label: BasisLabel) -> tuple[Rule, ...]:
        """The checked (output label, coefficient) pairs of one input label,
        memoized per label; a bad output or input raises on every call.  Pass
        only checked state labels: the memo keys by equality, so a label equal
        to a memoized one (path True or 1.0 for 1) gets that label's outputs."""
        outs = self._expanded.get(label)
        if outs is None:
            outs = self._expand(label)
            if len(self._expanded) < _EXPANDED_MAX:
                self._expanded[label] = outs
        return outs

    def _expand(self, label: BasisLabel) -> tuple[Rule, ...]:
        for pattern, outs in self.rules.items():
            if _matches(pattern, label):
                return tuple((_check_label(*_fill(out, label)), coef) for out, coef in outs)
        if self.passthrough:
            return ((_check_label(*label), 1.0 + 0j),)
        raise UndefinedInputError(f"{self.name} is undefined on label {label}")

    def __repr__(self) -> str:
        return f"ElementOp({self.name!r}, {len(self.rules)} rules)"


_TABLES_MAX = 256  # built-in tables compiled per process
# Labels memoized per table: more than the 240 labels (5 paths x 2 polarizations
# x 3 frequency values per party) of an 8-party circuit.  Racing threads may
# each add one more.
_EXPANDED_MAX = 256


class _Table(NamedTuple):
    """A compiled rule table: its read-only rules and their expand memo."""
    rules: MappingProxyType
    expanded: dict


def _rule_label(name: str, label) -> BasisLabel:
    try:
        hash(checked := BasisLabel(*label))
    except TypeError:
        raise ValueError(
            f"{name}: rule labels are hashable (polarization, frequency, path), got {label!r}"
        ) from None
    return checked


def _compile(name: str, rules) -> _Table:
    """The checked rule mapping of one rule dict, with an empty expand memo."""
    compiled = {
        _rule_label(name, pat): tuple((_rule_label(name, out), complex(c)) for out, c in outs)
        for pat, outs in _mapping(f"{name}: rules", rules).items()
    }
    _check_isometry(name, compiled)
    return _Table(MappingProxyType(compiled), {})


# typed: keys each path with its type, so wdm(0, 1.0, 2) is checked, never served wdm(0, 1, 2)'s table
@functools.lru_cache(maxsize=_TABLES_MAX, typed=True)
def _table(name: str, rules_of, *args) -> _Table:
    """The built-in table rules_of(*args), compiled once per element and
    arguments; a table that fails its check is never cached."""
    return _compile(name, rules_of(*args))


def _check_isometry(name: str, rules: dict[BasisLabel, tuple[Rule, ...]]) -> None:
    cols = list(rules.items())
    for i, (pat_i, outs_i) in enumerate(cols):
        for pat_j, outs_j in cols[i:]:
            dot = 0j
            for out_i, ci in outs_i:
                for out_j, cj in outs_j:
                    if out_i == out_j:
                        dot += ci.conjugate() * cj
            expected = 1.0 if pat_i == pat_j else 0.0
            if not abs(dot - expected) <= ALGEBRA_TOL:
                raise ValueError(f"{name}: columns {pat_i} / {pat_j} not orthonormal")


def _checked(record):
    """Class decorator for a NamedTuple record with a ``_check`` method: every
    way to build one (by field, ``_replace``, copy or unpickle) runs it.  A
    TypeError from the check is re-raised naming the first field that is not
    an instance of the ``numbers`` class ``record._number`` names."""
    new = record.__new__

    @functools.wraps(new)
    def checked(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        try:
            self._check()
        except TypeError:  # a field the check could not compare or add
            import numbers  # here, not at the top: the CLI's start-up does not load it

            for field, value in zip(cls._fields, self):
                if not isinstance(value, getattr(numbers, cls._number)):
                    kind = f"a {cls._number.lower()} number"
                    raise TypeError(f"{cls.__name__}.{field} must be {kind}, got {value!r}") from None
            raise
        return self

    record.__new__ = checked  # a NamedTuple class body may not define __new__
    record._make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it
    return record


@_checked
class NoiseParams(NamedTuple):
    """Amplitudes (alpha, beta) of the channel's action on |H>, with
    |alpha|^2 + |beta|^2 = 1 within the ALGEBRA_TOL the noise table's
    isometry check takes."""

    alpha: complex
    beta: complex
    _number = "Complex"

    def _check(self):
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(total - 1.0) <= ALGEBRA_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {total!r}, expected 1")

    @staticmethod
    def identity() -> "NoiseParams":
        return NoiseParams(1.0, 0.0)


@_checked
class NoiseAngles(NamedTuple):
    """(theta, phi) parameterization: alpha = cos(theta), beta = e^{i phi} sin(theta).

    Always yields normalized NoiseParams, so user input cannot violate the
    normalization constraint.
    """

    theta: float
    phi: float = 0.0
    _number = "Real"

    def _check(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must be in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")

    def to_params(self) -> NoiseParams:
        return NoiseParams(math.cos(self.theta), cmath.exp(1j * self.phi) * math.sin(self.theta))


@_checked
class MixedNoiseWeights(NamedTuple):
    """Probabilities of the four definite polarization outcomes (HH, HV, VH, VV)."""

    f1: float
    f2: float
    f3: float
    f4: float
    _number = "Real"

    def _check(self):
        if not all(w >= 0 for w in self):
            raise ValueError(f"weights must be >= 0, got {tuple(self)}")
        if not abs(sum(self) - 1.0) <= NORM_TOL:
            raise ValueError(f"weights sum to {sum(self)!r}, expected 1")


def collective_noise(p: NoiseParams) -> ElementOp:
    """Channel unitary acting on polarization alone, same for every frequency and path.

    |H> -> alpha|H> + beta|V>; the action on |V> is the SU(2) completion
    |V> -> -conj(beta)|H> + conj(alpha)|V>.  Any other unitary completion
    differs only by a phase on the |V> column, which drops out of every
    post-selection probability and fidelity downstream.  Noise that is not a
    NoiseParams is a TypeError naming it.
    """
    _instance(NoiseParams, noise=p)
    a, b = complex(p.alpha), complex(p.beta)
    # keyed by the bits of alpha and beta, so a zero's sign keeps its own table
    bits = struct.pack("<4d", a.real, a.imag, b.real, b.imag)
    return ElementOp("noise", _table("noise", _noise_rules, bits))


def _noise_rules(bits: bytes):
    ar, ai, br, bi = struct.unpack("<4d", bits)
    a, b = complex(ar, ai), complex(br, bi)
    h, v = BasisLabel(H, None, None), BasisLabel(V, None, None)
    return {h: ((h, a), (v, b)), v: ((h, -b.conjugate()), (v, a.conjugate()))}


def _check_paths(name: str, *paths) -> tuple[int, ...]:
    """The paths as ints; a ValueError names the first that is no integer >= 0
    or, for more than one path, any path repeated."""
    paths = tuple(_integer(f"{name} path", path, 0) for path in paths)
    if len(set(paths)) != len(paths):
        raise ValueError(f"{name} needs {len(paths)} distinct paths, got {list(paths)}")
    return paths


def _path_op(name: str, rules_of, *paths, passthrough: bool = False) -> ElementOp:
    """The built-in element on paths, its table built by rules_of(*paths),
    which checks them, once per table."""
    try:
        return ElementOp(name, _table(name, rules_of, *paths), passthrough=passthrough)
    except TypeError:  # an unhashable path, which the table cache cannot key
        _check_paths(name, *paths)
        raise


def _wdm_rules(in_path: PathId, upper: PathId, lower: PathId):
    in_path, upper, lower = _check_paths("wdm", in_path, upper, lower)
    return {
        BasisLabel(None, W1, in_path): ((BasisLabel(None, W1, upper), 1.0),),
        BasisLabel(None, W2, in_path): ((BasisLabel(None, W2, lower), 1.0),),
    }


def wdm(in_path: PathId, upper: PathId, lower: PathId) -> ElementOp:
    """Polarization-independent router: w1 on in_path -> upper, w2 -> lower.
    Paths are distinct integers >= 0, checked once per table."""
    return _path_op("wdm", _wdm_rules, in_path, upper, lower)


def _fs_rules(path: PathId):
    (path,) = _check_paths("fs", path)
    return {BasisLabel(None, W1, path): ((BasisLabel(None, W2, path), 1.0),)}


def frequency_shifter(path: PathId) -> ElementOp:
    """Lossless w1 -> w2 conversion on one path, an integer >= 0; identity everywhere else."""
    return _path_op("fs", _fs_rules, path, passthrough=True)


def _hwp_rules(path: PathId):
    (path,) = _check_paths("hwp", path)
    return {
        BasisLabel(H, None, path): ((BasisLabel(V, None, path), 1.0),),
        BasisLabel(V, None, path): ((BasisLabel(H, None, path), 1.0),),
    }


def half_wave_plate(path: PathId) -> ElementOp:
    """|H> <-> |V> on one path, an integer >= 0; identity everywhere else."""
    return _path_op("hwp", _hwp_rules, path, passthrough=True)


def _pbs_rules(in_upper: PathId, in_lower: PathId, out1: PathId, out2: PathId):
    in_upper, in_lower, out1, out2 = _check_paths("pbs", in_upper, in_lower, out1, out2)
    return {
        BasisLabel(H, None, in_upper): ((BasisLabel(H, None, out1), 1.0),),
        BasisLabel(V, None, in_upper): ((BasisLabel(V, None, out2), 1.0),),
        BasisLabel(V, None, in_lower): ((BasisLabel(V, None, out1), 1.0),),
        BasisLabel(H, None, in_lower): ((BasisLabel(H, None, out2), 1.0),),
    }


def pbs(in_upper: PathId, in_lower: PathId, out1: PathId, out2: PathId) -> ElementOp:
    """Polarizing beam splitter: H transmits, V reflects, unit coefficients.

    (H, upper) -> out1, (V, upper) -> out2, (V, lower) -> out1,
    (H, lower) -> out2.  Reflection phases would be global per output port and
    cancel in all probabilities and fidelities, so they are omitted.  Paths
    are distinct integers >= 0, checked once per table.
    """
    return _path_op("pbs", _pbs_rules, in_upper, in_lower, out1, out2)
