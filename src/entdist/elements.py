"""Optical elements and channels as single-photon label-rewrite rules.

Each ElementOp is a sparse linear map over (polarization, frequency, path)
labels.  Rule inputs and outputs may leave fields as None: a None input field
matches any value, and a None output field copies the matched input's value.
That lets path- and frequency-independent elements (the collective-noise
unitary, for one) stay finite rule tables no matter how many paths a circuit
uses.  Each distinct rule table is normalized and checked once per process,
and every op built with it shares its ``expand`` memo of checked state labels.
"""
from __future__ import annotations

import cmath
import functools
import math
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
    checked when a rule table is first seen.  Ops with equal tables (same
    name, rules in the same order with bit-identical coefficients, same
    passthrough) share one read-only ``rules`` mapping and one ``expand`` memo
    per process.  ``rules`` may also be given as the table's ``_table_key``.
    """

    __slots__ = ("name", "rules", "passthrough", "_expanded")

    def __init__(
        self,
        name: str,
        rules: dict[BasisLabel, tuple[Rule, ...]] | tuple,
        *,
        passthrough: bool = False,
    ):
        self.name = name
        self.passthrough = passthrough
        # a tuple is a table already keyed (the fixed elements key theirs once per paths)
        key = rules if isinstance(rules, tuple) else _table_key(rules)
        self.rules, self._expanded = _compile(name, key, passthrough)

    def expand(self, label: BasisLabel) -> tuple[Rule, ...]:
        """The checked (output label, coefficient) pairs of one input label,
        memoized per label; a bad output or input raises on every call."""
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


_TABLES_MAX = 256  # distinct rule tables compiled per process
_PATH_TABLES_MAX = 256  # fixed-element (WDM, FS, HWP, PBS) tables keyed per process
# Labels memoized per table: more than the 240 labels (5 paths x 2 polarizations
# x 3 frequency values per party) of an 8-party circuit.  Racing threads may
# each add one more.
_EXPANDED_MAX = 256


def _table_key(rules) -> tuple:
    """A rule table as a hashable key: one tuple per rule, in rule order, of
    its pattern then (output, type of its path, coefficient, sign of real
    part, sign of imaginary part) per output.  The type keeps the paths True,
    1.0 and np.int64(1) apart from 1; equal non-NaN floats differ in bits
    only as 0.0 and -0.0, which the signs keep apart; a NaN coefficient never
    passes the isometry check, so it is never cached."""
    key = []
    for pat, outs in rules.items():
        rule = [pat]
        for out, c in outs:
            if type(out) is not BasisLabel:  # the fixed elements and the noise pass BasisLabels
                out = BasisLabel(*out)
            c = complex(c)
            rule += (out, type(out.path), c, math.copysign(1.0, c.real), math.copysign(1.0, c.imag))
        key.append(tuple(rule))
    return tuple(key)


@functools.lru_cache(maxsize=_PATH_TABLES_MAX, typed=True)
def _path_table(rules_of, *paths) -> tuple:
    """The _table_key of the fixed element table rules_of(*paths), made once
    per element and paths, each path keyed with its type."""
    return _table_key(rules_of(*paths))


@functools.lru_cache(maxsize=_TABLES_MAX)
def _compile(name: str, key: tuple, passthrough: bool):
    """The checked rule mapping of one table key, and its shared expand memo.
    ``passthrough`` is only keyed on: ops that differ in it share no memo."""
    rules = {
        BasisLabel(*rule[0]): tuple((rule[i], rule[i + 2]) for i in range(1, len(rule), 5))
        for rule in key
    }
    _check_isometry(name, rules)
    memo: dict[BasisLabel, tuple[Rule, ...]] = {}
    return MappingProxyType(rules), memo


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
    way to build one (by field, ``_replace``, copy or unpickle) runs it."""
    new = record.__new__

    @functools.wraps(new)
    def checked(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    record.__new__ = checked  # a NamedTuple class body may not define __new__
    record._make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it
    return record


@_checked
class NoiseParams(NamedTuple):
    """Amplitudes (alpha, beta) of the channel's action on |H>."""

    alpha: complex
    beta: complex

    def _check(self):
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(total - 1.0) <= NORM_TOL:
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

    def _check(self):
        weights = (self.f1, self.f2, self.f3, self.f4)
        if not all(w >= 0 for w in weights):
            raise ValueError(f"weights must be >= 0, got {weights}")
        if not abs(sum(weights) - 1.0) <= NORM_TOL:
            raise ValueError(f"weights sum to {sum(weights)!r}, expected 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f1, self.f2, self.f3, self.f4)


def collective_noise(p: NoiseParams) -> ElementOp:
    """Channel unitary acting on polarization alone, same for every frequency and path.

    |H> -> alpha|H> + beta|V>; the action on |V> is the SU(2) completion
    |V> -> -conj(beta)|H> + conj(alpha)|V>.  Any other unitary completion
    differs only by a phase on the |V> column, which drops out of every
    post-selection probability and fidelity downstream.
    """
    a, b = complex(p.alpha), complex(p.beta)
    h, v = BasisLabel(H, None, None), BasisLabel(V, None, None)
    return ElementOp("noise", {h: ((h, a), (v, b)), v: ((h, -b.conjugate()), (v, a.conjugate()))})


def _wdm_rules(in_path: PathId, upper: PathId, lower: PathId):
    return {
        BasisLabel(None, W1, in_path): ((BasisLabel(None, W1, upper), 1.0),),
        BasisLabel(None, W2, in_path): ((BasisLabel(None, W2, lower), 1.0),),
    }


def wdm(in_path: PathId, upper: PathId, lower: PathId) -> ElementOp:
    """Polarization-independent router: w1 on in_path -> upper, w2 -> lower."""
    if len({in_path, upper, lower}) != 3:
        raise ValueError("wdm needs three distinct paths")
    return ElementOp("wdm", _path_table(_wdm_rules, in_path, upper, lower))


def _fs_rules(path: PathId):
    return {BasisLabel(None, W1, path): ((BasisLabel(None, W2, path), 1.0),)}


def frequency_shifter(path: PathId) -> ElementOp:
    """Lossless w1 -> w2 conversion on one path; identity everywhere else."""
    return ElementOp("fs", _path_table(_fs_rules, path), passthrough=True)


def _hwp_rules(path: PathId):
    return {
        BasisLabel(H, None, path): ((BasisLabel(V, None, path), 1.0),),
        BasisLabel(V, None, path): ((BasisLabel(H, None, path), 1.0),),
    }


def half_wave_plate(path: PathId) -> ElementOp:
    """|H> <-> |V> on one path; identity everywhere else."""
    return ElementOp("hwp", _path_table(_hwp_rules, path), passthrough=True)


def _pbs_rules(in_upper: PathId, in_lower: PathId, out1: PathId, out2: PathId):
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
    cancel in all probabilities and fidelities, so they are omitted.
    """
    if len({in_upper, in_lower, out1, out2}) != 4:
        raise ValueError("pbs needs four distinct paths")
    return ElementOp("pbs", _path_table(_pbs_rules, in_upper, in_lower, out1, out2))
