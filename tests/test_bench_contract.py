"""The benchmark's contract, checked in the test suite.

Runs each perfbench workload's request in process, traced, and asserts its
output check and every per-request count the benchmark pins exactly; and
checks that a cold, a traced and a warm request print the same reply, and
that a warm request compiles no rule table.  A
change that would make a benchmark run fail fails here first.
Reads perfbench/ as it stands and changes nothing there.
"""
import contextlib
import io
import sys
import time
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

from entdist import cli, elements, rng  # noqa: E402


def _memos() -> list:
    """Every memo a request may fill, emptied before a request that must run
    cold: each object with a cache_clear in a loaded entdist module (one not
    yet imported holds no state), so that a new or renamed cache is emptied
    too."""
    memos = {}
    for key, module in list(sys.modules.items()):
        if key == "entdist" or key.startswith("entdist."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    memos[id(value)] = value
    return list(memos.values())


def _reply(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_request_meets_contract(name):
    workload = workloads.WORKLOADS[name]
    argv = workloads.argv_for(name, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)  # looked up at call time, so the traced main runs
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    out = buf.getvalue()
    assert code == 0
    workload.check(argv, out)
    metrics = spans.layer_metrics(tracer.totals, elapsed, len(out.encode()))
    counts = {key: metrics[key] for key in workload.exact_counts}
    assert counts == workload.exact_counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_warm_replies_equal_the_cold_one(name):
    """A run compares every reply with its first, and a traced run rebinds
    module names: a cold request, a traced one and a warm untraced one print
    the same bytes, so no memo carries state from one request to the next."""
    argv = workloads.argv_for(name, 1)
    memos = _memos()
    assert memos
    for memo in memos:
        memo.cache_clear()
    cold = _reply(argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _reply(argv)
    finally:
        tracer.uninstall()
    assert traced.encode() == cold.encode()
    assert _reply(argv).encode() == cold.encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warm_request_compiles_no_table(name, monkeypatch):
    """Every op of a workload is a built-in element: a cold request compiles
    each of its tables once, and a warm one compiles no rule table."""
    argv = workloads.argv_for(name, 1)
    compiled, compile_ = [], elements._compile

    def counting(op_name, rules):
        compiled.append(op_name)
        return compile_(op_name, rules)

    monkeypatch.setattr(elements, "_compile", counting)
    elements._table.cache_clear()
    _reply(argv)
    assert compiled and len(compiled) == elements._table.cache_info().currsize
    compiled.clear()
    _reply(argv)
    assert compiled == []


def test_one_sample_call_is_one_rng_call():
    """rng.sample draws its words inside its own span, whatever the number of
    blocks: one rng call and n draws, with rng.words called once, so the rng
    layer's counts stay per draw while its busy time includes the sampling."""
    n = 2 * 2**15 + 5
    keys = rng.TrialKeys(3, np.arange(n, dtype=np.uint64))
    tables = np.cumsum(np.full((2, 4), 0.25), axis=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = rng.sample(keys, 16, tables, np.arange(n) % 2)
    finally:
        tracer.uninstall()
    assert out.size == n
    counts = {key: tracer.totals[key] for key in ("rng.calls", "rng.draws", "rng.words.calls")}
    assert counts == {"rng.calls": 1, "rng.draws": n, "rng.words.calls": 1}
