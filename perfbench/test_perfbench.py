"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import entdist.cli  # noqa: E402

SEEDS = (1, 2)


def request(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert entdist.cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def replies() -> dict[tuple[str, int], tuple[list[str], str]]:
    out = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            argv = workloads.argv_for(name, seed)
            out[name, seed] = argv, request(argv)
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_engine_passes_every_check(replies, name, seed):
    argv, out = replies[name, seed]
    workloads.WORKLOADS[name].check(argv, out)


def test_argv_depends_on_seed_only():
    for name in workloads.WORKLOADS:
        assert workloads.argv_for(name, 7) == workloads.argv_for(name, 7)
        assert workloads.argv_for(name, 7) != workloads.argv_for(name, 8)


def test_ghz8_rejects_one_probability_off_by_1e_6(replies):
    argv, out = replies["ghz8", 1]
    doc = json.loads(out)
    doc["outcomes"][37]["probability"] += 1e-6
    with pytest.raises(checks.OutputError, match="probability"):
        checks.check_distribute(argv, json.dumps(doc))


def test_bbm92_rejects_qber_of_1e_12(replies):
    argv, out = replies["bbm92_1m", 1]
    doc = json.loads(out)
    doc["qber"] = 1e-12
    with pytest.raises(checks.OutputError, match="qber"):
        checks.check_bbm92(argv, json.dumps(doc))


def _sweep_rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


def _sweep_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_sweep_text_round_trips(replies):
    _, out = replies["sweep_10x10", 1]
    assert _sweep_text(_sweep_rows(out)) == out


def test_sweep_rejects_a_row_out_of_order(replies):
    argv, out = replies["sweep_10x10", 1]
    rows = _sweep_rows(out)
    rows[5], rows[6] = rows[6], rows[5]
    with pytest.raises(checks.OutputError, match="grid order"):
        checks.check_sweep(argv, _sweep_text(rows))


def test_sweep_rejects_scheme_qber_of_1e_12(replies):
    argv, out = replies["sweep_10x10", 1]
    rows = _sweep_rows(out)
    rows[40][4] = "1e-12"
    with pytest.raises(checks.OutputError, match="scheme_qber"):
        checks.check_sweep(argv, _sweep_text(rows))


def test_sweep_rejects_a_biased_baseline(replies):
    argv, out = replies["sweep_10x10", 1]
    rows = _sweep_rows(out)
    rows[55][5] = repr(float(rows[55][5]) + 0.05)
    with pytest.raises(checks.OutputError, match="baseline_qber"):
        checks.check_sweep(argv, _sweep_text(rows))


def test_baseline_oracle_matches_real_rotations():
    # With phi = 0 both channels are real rotations, and R_a (x) R_b leaves
    # phi+ rotated by theta_a - theta_b: Z and X both err with sin^2 of that.
    q = checks.baseline_error_rate(0.3, 0.0, 0.1, 0.0)
    assert q == pytest.approx(math.sin(0.2) ** 2, abs=1e-12)
    assert checks.baseline_error_rate(0.0, 1.0, 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)


class ScriptedCli:
    """Stands in for entdist.cli: replies with the given outputs in turn."""

    def __init__(self, outputs: list[str]) -> None:
        self.outputs = iter(outputs)

    def main(self, argv) -> int:
        sys.stdout.write(next(self.outputs))
        return 0


def test_client_rejects_a_repeat_that_differs_by_one_byte(replies):
    argv, out = replies["bbm92_1m", 1]
    changed = out[:-2] + chr(ord(out[-2]) ^ 1) + out[-1]
    client = run.Client(ScriptedCli([out, out, changed, out]), argv, checks.check_bbm92)
    for _ in range(4):
        client.send()
    assert (client.attempted, client.failed) == (4, 1)


def test_client_fails_every_repeat_of_a_wrong_first_reply(replies):
    argv, out = replies["bbm92_1m", 1]
    wrong = out.replace('"n_errors": 0', '"n_errors": 1')
    client = run.Client(ScriptedCli([wrong, wrong]), argv, checks.check_bbm92)
    client.send()
    client.send()
    assert client.failed == 2


def test_tail_leaves_ten_samples_beyond_it():
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0)
    assert run.tail(times[:5]) == (5.0, 100.0)


def test_tracer_counts_outermost_calls_and_restores_the_package():
    from entdist import protocols, rng

    original = rng.words
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rng.words is not original and protocols.rng.words is not original
        rng.uniforms(1, list(range(10)), 0)
        assert tracer.totals["rng.calls"] == 1
        assert tracer.totals["rng.draws"] == 10
        assert tracer.totals["rng.words.calls"] == 1
    finally:
        tracer.uninstall()
    assert rng.words is original


def test_tracer_rebinds_names_imported_into_other_modules(replies):
    argv, _ = replies["ghz8", 1]
    tracer = spans.Tracer()
    tracer.install()
    try:
        request(argv)
        row = spans.layer_metrics(tracer.totals, 1.0, 0)
    finally:
        tracer.uninstall()
    for name, expected in workloads.WORKLOADS["ghz8"].exact_counts.items():
        assert row[name] == expected, name


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ghz8", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_run_reports(replies):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    workload = workloads.WORKLOADS["ghz8"]
    client = run.Client(entdist.cli, replies["ghz8", 1][0], workload.check)
    for key, measure in (("end_to_end", run.end_to_end), ("per_layer", run.per_layer)):
        reported = measure(client, workload, 0.01)
        assert {name: m["unit"] for name, m in reported.items()} == {m["name"]: m["unit"] for m in spec[key]}
    assert client.failed == 0
