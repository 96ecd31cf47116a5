"""Span tracing of entdist from outside the package.

Tracer.install() replaces every public function of each layer module, plus
ElementOp.__init__ and ElementOp.expand on the class, by a wrapper that
times the call as a span.  Modules bind names at import (``from .qstate
import apply_element``), so each wrapper is rebound under every module-level
name, in every entdist module, that refers to the original by identity.

A span's self time is its duration minus the time of the spans it encloses;
the tracer sums self time and call counts per layer and per function.  A
layer's ``calls`` counts only its outermost spans: rng.uniforms calling
rng.words is one rng call, drawing once.  Totals are kept in memory and
reset per request.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("rng", "elements", "qstate", "distribution", "protocols", "cli")

# Functions that per-layer metrics name; install() fails if one is missing.
REQUIRED = (
    "rng.words", "rng.uniforms", "elements.ElementOp.__init__", "elements.ElementOp.expand",
    "qstate.apply_element", "qstate.project_paths", "qstate.fidelity",
    "qstate.strip_frequency", "qstate.inner_product",
    "protocols.joint_outcome_distribution", "cli.main",
)

# Per-request metrics that are counts: they repeat exactly from request to request.
COUNTS = (
    "rng.calls", "rng.draws", "elements.ops_built", "elements.expand_calls",
    "qstate.apply_calls", "qstate.terms_max", "qstate.project_calls", "qstate.terms_scanned",
    "distribution.calls", "distribution.patterns", "distribution.live_ratio",
    "protocols.tables_calls", "protocols.calls", "protocols.trials", "cli.bytes_out",
)


def _count_draws(totals, args, result, outermost):
    if outermost:
        totals["rng.draws"] += getattr(result, "size", 1)


def _terms_max(totals, args, result, outermost):
    totals["qstate.terms_max"] = max(totals["qstate.terms_max"], len(result.amplitudes))


def _terms_scanned(totals, args, result, outermost):
    totals["qstate.terms_scanned"] += len(args[0].amplitudes)


def _count_patterns(totals, args, result, outermost):
    if outermost and isinstance(result, list) and all(hasattr(o, "probability") for o in result):
        totals["distribution.patterns"] += len(result)
        totals["distribution.live"] += sum(o.probability > 0 for o in result)


def _count_trials(totals, args, result, outermost):
    # Every ProtocolStats is built once, by the run that sampled its trials.
    if hasattr(result, "n_trials") and hasattr(result, "n_sifted"):
        totals["protocols.trials"] += result.n_trials
        totals["protocols.sifted"] += result.n_sifted


def _observer(layer: str, name: str):
    if layer == "rng":
        return _count_draws
    if name == "qstate.apply_element":
        return _terms_max
    if name == "qstate.project_paths":
        return _terms_scanned
    if layer == "distribution":
        return _count_patterns
    if layer == "protocols":
        return _count_trials
    return None


class Tracer:
    """Span timer over entdist's layer modules; install, read totals, uninstall."""

    def __init__(self) -> None:
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time so far, per open span
        self._depth = dict.fromkeys(LAYERS, 0)
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.totals.clear()

    def _wrap(self, fn, layer: str, name: str):
        totals, open_spans, depth = self.totals, self._open, self._depth
        observe = _observer(layer, name)
        clock = time.perf_counter
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"
        layer_calls, layer_self = f"{layer}.calls", f"{layer}.self_s"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            depth[layer] += 1
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                depth[layer] -= 1
                totals[self_key] += own
                totals[layer_self] += own
                totals[calls_key] += 1
                if depth[layer] == 0:
                    totals[layer_calls] += 1
            if observe is not None:
                observe(totals, args, result, depth[layer] == 0)
            return result

        return span

    def _replace(self, holder, attr: str, original, wrapper) -> None:
        self._undo.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"entdist.{layer}") for layer in LAYERS}
        holders = [m for key, m in sys.modules.items() if key == "entdist" or key.startswith("entdist.")]
        wrapped = set()
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, layer, f"{layer}.{attr}")
                wrapped.add(f"{layer}.{attr}")
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._replace(holder, name, fn, wrapper)
        op_class = modules["elements"].ElementOp
        for attr in ("__init__", "expand"):
            fn = op_class.__dict__[attr]
            name = f"elements.ElementOp.{attr}"
            self._replace(op_class, attr, fn, self._wrap(fn, "elements", name))
            wrapped.add(name)
        missing = [name for name in REQUIRED if name not in wrapped]
        if missing:
            self.uninstall()
            raise RuntimeError(f"entdist no longer defines {missing}; the tracer needs updating")

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def layer_metrics(totals, wall_s: float, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced request from the tracer's totals."""
    get = totals.get
    draws = get("rng.draws", 0)
    patterns = get("distribution.patterns", 0)
    trials = get("protocols.trials", 0)
    expand_s = get("elements.ElementOp.expand.self_s", 0.0)
    tables_s = get("protocols.joint_outcome_distribution.self_s", 0.0)
    return {
        "rng.calls": get("rng.calls", 0),
        "rng.draws": draws,
        "rng.busy_s": get("rng.self_s", 0.0),
        "rng.ns_per_draw": get("rng.self_s", 0.0) / draws * 1e9 if draws else 0.0,
        "elements.ops_built": get("elements.ElementOp.__init__.calls", 0),
        "elements.build_s": get("elements.self_s", 0.0) - expand_s,
        "elements.expand_calls": get("elements.ElementOp.expand.calls", 0),
        "elements.expand_s": expand_s,
        "qstate.apply_calls": get("qstate.apply_element.calls", 0),
        "qstate.apply_s": get("qstate.apply_element.self_s", 0.0),
        "qstate.terms_max": get("qstate.terms_max", 0),
        "qstate.project_calls": get("qstate.project_paths.calls", 0),
        "qstate.project_s": get("qstate.project_paths.self_s", 0.0),
        "qstate.terms_scanned": get("qstate.terms_scanned", 0),
        "qstate.other_s": sum(
            get(f"qstate.{fn}.self_s", 0.0) for fn in ("fidelity", "strip_frequency", "inner_product")
        ),
        "distribution.calls": get("distribution.calls", 0),
        "distribution.self_s": get("distribution.self_s", 0.0),
        "distribution.patterns": patterns,
        "distribution.live_ratio": get("distribution.live", 0) / patterns if patterns else 0.0,
        "protocols.self_s": get("protocols.self_s", 0.0) - tables_s,
        "protocols.tables_calls": get("protocols.joint_outcome_distribution.calls", 0),
        "protocols.tables_s": tables_s,
        "protocols.calls": get("protocols.calls", 0),
        "protocols.trials": trials,
        "protocols.sift_ratio": get("protocols.sifted", 0) / trials if trials else 0.0,
        "cli.self_s": get("cli.self_s", 0.0),
        "cli.bytes_out": bytes_out,
        "trace.coverage": sum(get(f"{layer}.self_s", 0.0) for layer in LAYERS) / wall_s,
    }
