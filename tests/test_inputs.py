"""The library's input checks: one Hypothesis property puts one bad value at a
time into an otherwise valid call of every public callable, and two guards
keep the integer check and the class check each in one place.

Derandomized by the Hypothesis profile tests/conftest.py loads.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entdist
from entdist import distribution, protocols, rng
from entdist.elements import ElementOp, MixedNoiseWeights, NoiseAngles
from entdist.qstate import BasisLabel, H, PureState, V, W1, W2

S = 1 / math.sqrt(2)
NOISE = [NoiseAngles(theta, 0.1).to_params() for theta in (0.3, 0.2, 0.4)]
_HV = {BasisLabel(H, None, 0): ((BasisLabel(V, None, 0), 1.0),),
       BasisLabel(V, None, 0): ((BasisLabel(H, None, 0), 1.0),)}


def _bell(frequencies=(None, None)) -> PureState:
    (fa, fb) = frequencies
    return PureState(2, {((H, fa, 0), (H, fb, 1)): S, ((V, fa, 0), (V, fb, 1)): S})


def _spec(*args):
    """(valid value, the words, split at "|", one of which an error about it names) per argument."""
    return [(value, tuple(words.split("|"))) for value, words in args]


# Every callable of entdist.__all__, rng's public ones and the two the README
# documents outside __all__, with a valid call.
# The specs are functions, so that every call gets its own arguments.
CALLS = {
    "BasisLabel": (entdist.BasisLabel, lambda: _spec((H, "polarization"), (W1, "frequency"), (0, "path"))),
    "DistributionOutcome": (entdist.DistributionOutcome, lambda: _spec(
        ((9, 14), "pattern"), (("b:lo", "c:src"), "names"), ((1, 1), "slots"), (0.5, "probability"),
        (_bell(), "conditional"), ("phi_plus", "reference"), (1.0, "fidelity"), ((), "flips"))),
    "ElementOp": (lambda name, rules, passthrough: ElementOp(name, rules, passthrough=passthrough), lambda: _spec(
        ("swap", "name"), (dict(_HV), "rules|rule|label|orthonormal"), (False, "passthrough"))),
    "MixedNoiseWeights": (entdist.MixedNoiseWeights, lambda: _spec(
        (0.25, "f1|weights"), (0.25, "f2|weights"), (0.25, "f3|weights"), (0.25, "f4|weights"))),
    "NoiseAngles": (entdist.NoiseAngles, lambda: _spec((0.3, "theta"), (0.1, "phi"))),
    "NoiseParams": (entdist.NoiseParams, lambda: _spec((0.6, "alpha"), (0.8, "beta"))),
    "ProtocolStats": (entdist.ProtocolStats, lambda: _spec(
        ("bbm92", "protocol"), (4, "n_trials"), (2, "n_sifted"), (0, "n_errors"), (0.0, "qber"),
        (0.5, "sift_rate"), (7, "seed"), ({"Z": 1, "X": 1}, "sifted"), ({"Z": 0, "X": 0}, "errors"))),
    "PureState": (entdist.PureState, lambda: _spec(
        (2, "n_photons"), ({((H, None, 0), (H, None, 1)): S, ((V, None, 0), (V, None, 1)): S},
                           "amplitudes|label|state|key|photons"))),
    "TrialRecord": (entdist.TrialRecord, lambda: _spec(
        (3, "trial"), ((1, 2), "pattern"), (("Z", "Z"), "bases"), ((0, 1), "outcomes"),
        (True, "sifted"), (False, "error"))),
    "UndefinedInputError": (entdist.UndefinedInputError, lambda: _spec(("no rule", "message"))),
    "apply_element": (entdist.apply_element, lambda: _spec(
        (_bell(), "state"), (1, "photon"), (entdist.half_wave_plate(1), "ElementOp"))),
    "baseline_direct": (entdist.baseline_direct, lambda: _spec(
        (4, "n_trials"), (NOISE[0], "noise"), (NOISE[1], "noise"), (7, "seed"))),
    "bbm92_records": (entdist.bbm92_records, lambda: _spec(
        (4, "n_trials"), (NOISE[0], "noise"), (NOISE[1], "noise"), (7, "seed"))),
    "bbm92_run": (entdist.bbm92_run, lambda: _spec(
        (4, "n_trials"), (NOISE[0], "noise"), (NOISE[1], "noise"), (7, "seed"))),
    "build_pipeline": (entdist.build_pipeline, lambda: _spec((1, "party"), (NOISE[0], "noise"))),
    "collective_noise": (entdist.collective_noise, lambda: _spec((NOISE[0], "noise"))),
    "fidelity": (entdist.fidelity, lambda: _spec((_bell(), "state"), (_bell(), "reference"))),
    "frequency_shifter": (entdist.frequency_shifter, lambda: _spec((2, "fs"))),
    "ghz_state": (entdist.ghz_state, lambda: _spec(((0, 5), "ports|path|party"), ((1,), "flip"))),
    "half_wave_plate": (entdist.half_wave_plate, lambda: _spec((2, "hwp"))),
    "inner_product": (entdist.inner_product, lambda: _spec((_bell(), "a must"), (_bell(), "b must"))),
    "pbs": (entdist.pbs, lambda: _spec((0, "pbs"), (1, "pbs"), (2, "pbs"), (3, "pbs"))),
    "port_name": (entdist.port_name, lambda: _spec((3, "path"))),
    "project_paths": (entdist.project_paths, lambda: _spec((_bell(), "state"), ({0: 0, 1: 1}, "photon|pattern"))),
    "qber_vs_theta_sweep": (entdist.qber_vs_theta_sweep, lambda: _spec(
        ([(NoiseAngles(0.3), NoiseAngles(0.2))], "grid"), (4, "n_trials"), (7, "seed"))),
    "qss_run": (entdist.qss_run, lambda: _spec(
        (4, "n_trials"), (list(NOISE), "noise"), (7, "seed"), ("xy", "basis_pair"))),
    "run_distribution": (entdist.run_distribution, lambda: _spec((NOISE[0], "noise"), (NOISE[1], "noise"))),
    "run_distribution_mixed": (entdist.run_distribution_mixed, lambda: _spec(
        (MixedNoiseWeights(0.5, 0.5, 0.0, 0.0), "weights"))),
    "source_state": (entdist.source_state, lambda: _spec(([0, 5], "paths|parties"))),
    "strip_frequency": (entdist.strip_frequency, lambda: _spec((_bell((W1, W2)), "state|photon"))),
    "wdm": (entdist.wdm, lambda: _spec((0, "wdm"), (1, "wdm"), (2, "wdm"))),
    "rng.words": (rng.words, lambda: _spec((7, "seed"), ([0, 5], "trial"), (3, "draw"))),
    "rng.uniforms": (rng.uniforms, lambda: _spec((7, "seed"), ([0, 5], "trial"), (3, "draw"))),
    "rng.derive_seed": (rng.derive_seed, lambda: _spec((7, "seed"), (2, "stream"))),
    "rng.TrialKeys": (rng.TrialKeys, lambda: _spec((7, "seed"), ([0, 5], "trial"))),
    "rng.sample": (rng.sample, lambda: _spec(
        (rng.TrialKeys(7, [0, 5]), "keys"), (3, "draw"), (np.array([[0.5, 1.0], [0.2, 1.0]]), "cum_rows"),
        (1, "row"))),
    "protocols.joint_outcome_distribution": (protocols.joint_outcome_distribution, lambda: _spec(
        (_bell(), "state"), (("Z", "X"), "bases|basis"))),
    "distribution.correction_flips": (distribution.correction_flips, lambda: _spec(((1, 2), "slot"))),
}

BAD_KINDS = ["wrong type", "None", "NaN", "negative", "huge", "float for int", "bool", "numpy bool",
             "numpy integer", "wrong length", "repeated paths"]


def _is_int(value) -> bool:
    return type(value) is int


def _bad(kind: str, valid):
    """The value of the given kind that stands in for a valid argument."""
    if kind == "float for int":
        return float(valid) if _is_int(valid) else 1.5
    if kind == "numpy integer":
        return np.int64(valid) if _is_int(valid) else np.int64(1)
    if kind == "wrong length":
        if isinstance(valid, dict):
            return dict(list(valid.items())[:-1])
        return valid[:-1] if isinstance(valid, (list, tuple)) else (0, 1, 2)
    if kind == "repeated paths":
        return [valid[0]] * len(valid) if isinstance(valid, (list, tuple)) and valid else (0, 0)
    return {"wrong type": object(), "None": None, "NaN": math.nan, "negative": -1, "huge": 2**70,
            "bool": True, "numpy bool": np.bool_(True)}[kind]


def _same(a, b) -> bool:
    """Equal results, arrays and ops by value."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, ElementOp):
        return (type(b) is ElementOp and (a.name, a.passthrough) == (b.name, b.passthrough)
                and dict(a.rules) == dict(b.rules))
    if isinstance(a, rng.TrialKeys):
        return isinstance(b, rng.TrialKeys) and a.seed == b.seed and _same(a.mixed, b.mixed)
    if isinstance(a, (list, tuple)) and not hasattr(a, "_fields"):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b and type(a) is type(b)


# Records that take any field values: they are built from checked values.
UNCHECKED = {"BasisLabel", "DistributionOutcome", "ProtocolStats", "TrialRecord", "UndefinedInputError"}
# What no integer argument of a checked call takes: every one is >= 0.
NO_INTEGER = {"float for int", "bool", "numpy bool", "negative"}


def test_every_public_callable_has_a_valid_call():
    assert set(CALLS) == set(entdist.__all__) | {
        "rng.words", "rng.uniforms", "rng.derive_seed", "rng.TrialKeys", "rng.sample",
        "protocols.joint_outcome_distribution", "distribution.correction_flips"}


@pytest.mark.parametrize("name", sorted(CALLS))
@given(data=st.data())
def test_a_bad_argument_is_a_value_or_type_error_naming_it(name, data):
    """Each call with one argument replaced succeeds, or raises a ValueError
    or TypeError whose text names that argument, never an AttributeError,
    an IndexError or a bare numpy message.  The one integer rule: an integer
    argument refuses a float, a bool, a numpy bool and a negative value with
    a ValueError, and a numpy integer gives the result of its int."""
    call, spec = CALLS[name]
    arguments = spec()
    args = [value for value, _ in arguments]
    position = data.draw(st.integers(0, len(args) - 1), label="argument")
    kind = data.draw(st.sampled_from(BAD_KINDS), label="kind")
    valid, words = arguments[position]
    refused = _is_int(valid) and kind in NO_INTEGER and name not in UNCHECKED
    args[position] = _bad(kind, valid)
    try:
        result = call(*args)
    except (ValueError, TypeError) as err:
        assert any(word in str(err) for word in words), (type(err).__name__, str(err))
        assert not (kind == "numpy integer" and _is_int(valid)), str(err)
        assert type(err) is ValueError or not refused, str(err)
        return
    assert not refused, result
    if kind == "numpy integer" and _is_int(valid):
        args[position] = valid
        assert _same(result, call(*args))


SRC = Path(entdist.__file__).parent


def _integer_spellings(tree: ast.AST):
    """(line, text) of each use of operator.index and each isinstance(..., int)
    or isinstance(..., bool), a tuple of types included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "operator.index":
            yield node.lineno, ast.unparse(node)
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(alias.name == "index" for alias in node.names):
                yield node.lineno, ast.unparse(node)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(ast.unparse(kind) in ("int", "bool") for kind in kinds):
                yield node.lineno, ast.unparse(node)


def test_the_integer_check_is_spelled_once():
    """operator.index, isinstance(..., int) and isinstance(..., bool) appear
    only in qstate._integer, and in cli, which dispatches on JSON value types."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == ("qstate.py", "_integer"):
                allowed = set(range(node.lineno, node.end_lineno + 1))
        found += [f"{path.name}:{line}: {text}" for line, text in _integer_spellings(tree) if line not in allowed]
    assert found == []


def test_the_guard_finds_each_spelling():
    code = ("import operator\noperator.index(x)\nisinstance(x, int)\nisinstance(x, (str, bool))\n"
            "isinstance(x, float)\nmap(operator.index, xs)\nfrom operator import index\n")
    assert sorted(line for line, _ in _integer_spellings(ast.parse(code))) == [2, 3, 4, 6, 7]


# The functions that may build a TypeError themselves: qstate's three checks,
# and the exemptions: apply_element's exact-type test (a subclass could
# override expand), _checked's naming of a record field, cli._json_text's JSON
# dispatch and project_paths' mapping check, inline on the per-pattern path.
TYPE_ERROR_RAISERS = {("qstate.py", "_instance"), ("qstate.py", "_sequence"), ("qstate.py", "_mapping"),
                      ("qstate.py", "apply_element"), ("elements.py", "_checked"), ("cli.py", "_json_text"),
                      ("qstate.py", "project_paths")}


def _type_error_raises(tree: ast.AST):
    """(line, enclosing top-level function) of each TypeError built, as a
    helper that returns one would, or raised bare."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "TypeError" or (
                    isinstance(node, ast.Raise) and node.exc and ast.unparse(node.exc) == "TypeError"):
                yield node.lineno, getattr(top, "name", None)


def test_the_class_check_is_spelled_once():
    """Every TypeError for an argument of the wrong class comes from
    qstate._instance: no other function raises TypeError but the listed ones."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}: in {name}" for line, name in _type_error_raises(tree)
                  if (path.name, name) not in TYPE_ERROR_RAISERS]
    assert found == []


def test_the_class_guard_finds_each_raise():
    code = ("def f(x):\n    if not isinstance(x, int):\n        raise TypeError(f'x must be an int, got {x!r}')\n"
            "def g(x):\n    try:\n        x.y\n    except AttributeError:\n        raise TypeError from None\n"
            "def h(x):\n    raise ValueError(x)\n"
            "def k(x):\n    return TypeError(x)\n")
    assert list(_type_error_raises(ast.parse(code))) == [(3, "f"), (8, "g"), (12, "k")]
