"""entdist benchmark: one closed-loop client sending CLI requests in-process.

    python3 perfbench/run.py --workload ghz8 --seed 1 --seconds 20 --trace 0

The run derives one argv from (workload, seed), sends it as
``entdist.cli.main(argv)`` with stdout captured, and waits for each reply
before sending the next.  Every reply is checked against an independent
oracle (checks.py) and must be byte-identical to the run's first reply.

Request times are reported in units of "ref": the request's wall time over
the wall time of the workload's canary (canary.py), run just before it.
On a shared 2-vCPU machine, speed swings by 30-50% over tens of seconds,
which moves raw medians between runs by more than any useful regression
bound; the ratio cancels most of that swing.  Raw seconds are reported beside it.

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
spends half of --seconds untraced and half with spans.Tracer installed, and
reports the per-layer metrics of the traced half, with the raw-second
timings of the untraced half.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP_REQUESTS = 2   # the first requests of a process run 15-30% slower
SETUP_PROBES = 9      # fresh interpreters timed per run, after one discarded
TAIL_BEYOND = 10      # samples the tail percentile must leave above it

_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import entdist.cli
entdist.cli.build_parser()
print(time.perf_counter() - start)
"""


class Client:
    """Sends one request at a time and tallies the ones that fail.

    A request fails if it raises or exits, returns non-zero, fails its output
    check, or prints anything other than what the run's first request printed.
    """

    def __init__(self, cli, argv: list[str], check) -> None:
        self.cli, self.argv, self.check = cli, argv, check
        self.attempted = self.failed = 0
        self.first: str | None = None
        self.first_error: str | None = None

    def send(self) -> tuple[float, str]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.argv)  # looked up per call, so tracing can rebind it
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        out = buf.getvalue()
        self.attempted += 1
        error = self.judge(code, out)
        if error is not None:
            self.failed += 1
            if self.failed == 1:
                print(f"request failed: {error}", file=sys.stderr)
        return elapsed, out

    def judge(self, code, out: str) -> str | None:
        if code != 0:
            return f"exit status {code!r}"
        if self.first is None:
            self.first = out
            try:
                self.check(self.argv, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.first_error = f"output check: {exc!r}"
            return self.first_error
        if out != self.first:
            return "stdout differs from the first request of the run"
        return self.first_error


def setup_probe() -> float:
    """Time for a fresh interpreter to import entdist.cli and build its parser."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


@dataclass
class Samples:
    times: list[float] = field(default_factory=list)   # request wall times
    ratios: list[float] = field(default_factory=list)  # request time / canary time around it
    layers: list[dict] = field(default_factory=list)   # per-layer metrics of traced requests
    setups: list[float] = field(default_factory=list)  # setup probes spread over the run


def _timed(canary) -> float:
    """Wall time of one canary run, with the garbage collector held off."""
    gc.disable()
    try:
        start = time.perf_counter()
        canary()
        return time.perf_counter() - start
    finally:
        gc.enable()


def closed_loop(client: Client, canary, seconds: float, *, tracer=None, probes: int = 0) -> Samples:
    """Requests back to back for `seconds`, with the canary timed between them.

    Each request's ratio divides its wall time by the mean of the canaries
    just before and just after it.  `probes` setup probes are spread evenly
    over the run, so that they sample the machine when the requests do; a
    probe is never between a request and its canaries.
    """
    samples = Samples()
    canary_before = None
    start = time.perf_counter()
    while not samples.times or time.perf_counter() - start < seconds:
        if len(samples.setups) < probes and time.perf_counter() - start >= len(samples.setups) * seconds / probes:
            samples.setups.append(setup_probe())
            canary_before = None
        if canary_before is None:
            canary_before = _timed(canary)
        if tracer is not None:
            tracer.reset()
        elapsed, out = client.send()
        if tracer is not None:
            samples.layers.append(spans.layer_metrics(tracer.totals, elapsed, len(out.encode())))
        canary_after = _timed(canary)
        samples.times.append(elapsed)
        samples.ratios.append(2 * elapsed / (canary_before + canary_after))
        canary_before = canary_after
    return samples


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and that percentile.

    With too few samples for that, the slowest request (percentile 100).
    """
    ordered = sorted(times)
    rank = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(client: Client) -> None:
    for _ in range(WARMUP_REQUESTS):
        client.send()


def end_to_end(client: Client, workload: workloads.Workload, seconds: float) -> dict:
    setup_probe()  # may compile the package's bytecode, which users pay once
    warm_up(client)
    loop = closed_loop(client, workload.canary, seconds, probes=SETUP_PROBES)
    tail_ref, pct = tail(loop.ratios)
    print(
        f"{len(loop.times)} timed requests, p50 {statistics.median(loop.times):.4f} s; "
        f"request_tail_ref is their p{pct:.1f}"
    )
    return {
        "setup_s": metric(statistics.median(loop.setups), "s"),
        "request_p50_ref": metric(statistics.median(loop.ratios), "ref"),
        "request_tail_ref": metric(tail_ref, "ref"),
        "work_per_ref": metric(workload.units_per_request * len(loop.ratios) / sum(loop.ratios), "1/ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


UNITS = {"_s": "s", "_frac": "ratio", "_ratio": "ratio", "coverage": "ratio", "ns_per_draw": "ns"}


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def per_layer(client: Client, workload: workloads.Workload, seconds: float) -> dict:
    warm_up(client)
    plain = closed_loop(client, workload.canary, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = closed_loop(client, workload.canary, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    rows = traced.layers
    for name in spans.COUNTS:
        values = {row[name] for row in rows}
        if len(values) != 1:
            raise RuntimeError(f"{name} varies between identical requests: {sorted(values)}")
    for name, expected in workload.exact_counts.items():
        if rows[0][name] != expected:
            raise RuntimeError(f"{workload.name}: {name} is {rows[0][name]}, expected exactly {expected}")
    print(f"{len(traced.times)} traced requests, {len(plain.times)} untraced")
    metrics = {name: metric(statistics.median(row[name] for row in rows), _unit(name)) for name in rows[0]}
    overhead = statistics.median(traced.ratios) / statistics.median(plain.ratios) - 1
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    metrics["request_p50_s"] = metric(statistics.median(plain.times), "s")
    metrics["request_tail_s"] = metric(tail(plain.times)[0], "s")
    metrics["work_per_s"] = metric(workload.units_per_request * len(plain.times) / sum(plain.times), "1/s")
    metrics["failed_frac"] = metric(client.failed / client.attempted, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entdist" / "cli.py").is_file():
        print(f"error: no entdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entdist.cli

    workload = workloads.WORKLOADS[args.workload]
    client = Client(entdist.cli, workloads.argv_for(workload.name, args.seed), workload.check)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(client, workload, args.seconds)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
