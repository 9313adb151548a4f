"""fermiosc benchmark: seeded CLI requests in a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload chain_contract --seed 1 --seconds 50 --trace 0

Each request is one ``fermiosc`` command line, called in-process through
``fermiosc.cli.main(argv)`` with stdout and stderr captured, and checked
against the benchmark's own reference (``check.py``).  Requests run whole
decks (``workloads.py``) until ``--seconds`` of request time has passed.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same stream under the tracer (``tracing.py``),
replays it untraced, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are the report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

from check import CAUSES, REL_TOL, judge  # noqa: E402
from workloads import DECKS, DEFECT_PROBES, Stream, request_kinds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7
MIN_REQUESTS = 100
# Request time of the traced phase at most; spans take about 40 bytes each.
TRACE_SECONDS = 10.0


def load_cli():
    """Import fermiosc.cli from this checkout's src/, or exit 2."""
    if not (SRC / "fermiosc" / "cli.py").is_file():
        sys.stderr.write("perfbench: no fermiosc sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fermiosc.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "fermiosc":
        sys.stderr.write("perfbench: imported fermiosc from %s, not %s\n" % (cli.__file__, SRC))
        sys.exit(2)
    return cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def call(cli, argv):
    """(ns, exit code, stdout, stderr, escaped exception) of one request."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = 0 if stop.code is None else stop.code if isinstance(stop.code, int) else 1
        except Exception as escaped:  # counted as a failure of the request
            exc = escaped
        elapsed = time.perf_counter_ns() - start
    return elapsed, code, out.getvalue(), err.getvalue(), exc


class Tally:
    """Requests attempted and failed, by cause, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.causes = dict.fromkeys(CAUSES, 0)
        self.examples = []

    def add(self, req, outcome) -> None:
        _, code, out, err, exc = outcome
        verdict = judge(req.expected, req.fmt, code, out, err, exc)
        self.attempted += 1
        if verdict.cause is None:
            return
        self.failed += 1
        self.causes[verdict.cause] += 1
        if len(self.examples) < 5:
            self.examples.append((req.argv, verdict))


def run_decks(cli, stream, tally, budget_ns=0, min_requests=0, decks=None, after_deck=None):
    """Run whole decks from deck 0: ``decks`` of them, or until the budget is spent.

    ``after_deck`` is called with the request time so far after every deck.
    Returns (latencies in ns, decks run).
    """
    latencies = []
    index = busy = 0
    while index < decks if decks is not None else (
            busy < budget_ns or len(latencies) < min_requests):
        for req in stream.deck(index):
            outcome = call(cli, req.argv)
            busy += outcome[0]
            latencies.append(outcome[0])
            tally.add(req, outcome)
        index += 1
        if after_deck is not None:
            after_deck(busy)
    return latencies, index


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that only imports fermiosc.cli."""
    start = time.perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # rounds the measured time up to the next poll
    subprocess.run([sys.executable, "-c", "import fermiosc.cli"], env=child_env(),
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


def peak_rss_mb(workload: str, seed: int) -> float:
    """ru_maxrss of a fresh process that runs the workload's first deck."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--rss-probe", "--workload", workload,
         "--seed", str(seed)],
        env=child_env(), cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
    )
    return int(probe.stdout.split()[-1]) / 1024.0


def machine() -> dict:
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, workload, seed, seconds, report):
    stream = Stream(workload, seed)
    run_decks(cli, stream, Tally(), decks=1)  # warm-up
    tally = Tally()
    budget = int(seconds * 1e9)
    spawns = []

    def spawn_when_due(busy):
        # spread the set-up spawns over the run, so they meet different machine load
        if len(spawns) < SETUP_SPAWNS and busy >= len(spawns) * budget / SETUP_SPAWNS:
            spawns.append(setup_seconds())

    latencies, decks = run_decks(cli, stream, tally, budget, MIN_REQUESTS, after_deck=spawn_when_due)
    while len(spawns) < SETUP_SPAWNS:
        spawns.append(setup_seconds())
    rss = peak_rss_mb(workload, seed)
    busy_s = sum(latencies) / 1e9
    ms = [ns / 1e6 for ns in latencies]
    metrics = {
        "setup_s": metric(statistics.median(spawns), "s"),
        "throughput_rps": metric(len(latencies) / busy_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(ms), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    samples = {
        "setup_s": "median of %d spawns spread over the run" % len(spawns),
        "throughput_rps": "%d requests in %.3f s of request time, %d decks" % (
            len(latencies), busy_s, decks),
        "latency_p50_ms": "%d samples" % len(ms),
        "latency_p90_ms": "%d samples, %d above p90" % (len(ms), len(ms) // 10),
        "peak_rss_mb": "1 child running deck 0",
    }
    for name, m in metrics.items():
        report("%-16s %14.6f %-4s (%s)" % (name, m["value"], m["unit"], samples[name]))
    report("%-16s %14.6f      (%d failed of %d attempted)" % (
        "error_rate", tally.failed / tally.attempted, tally.failed, tally.attempted))
    return tally, metrics


def traced(cli, workload, seed, seconds, report):
    from tracing import Tracer

    stream = Stream(workload, seed)
    run_decks(cli, stream, Tally(), decks=1)  # warm-up
    tally = Tally()
    tracer = Tracer()
    budget = int(min(seconds / 2, TRACE_SECONDS) * 1e9)
    with tracer:
        latencies, decks = run_decks(cli, stream, tally, budget)
    untraced, _ = run_decks(cli, stream, tally, decks=decks)
    metrics = {}
    units = {".ms": "ms/req", ".self_ms": "ms/req", ".mflops": "Mflop/s", ".flops": "flop/req",
             ".pair_yield": "ratio", ".peak_terms": "count"}
    for name, value in tracer.metrics(len(latencies)).items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "1/req")
        metrics[name] = metric(value, unit)
    overhead = (sum(latencies) / sum(untraced) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    spans = HERE / "out" / ("spans_%s.csv.gz" % workload)
    tracer.write(spans)
    report("traced %d requests (%d decks), %d spans written to %s" % (
        len(latencies), decks, len(tracer.name_id), spans.relative_to(ROOT)))
    for name, m in metrics.items():
        report("%-48s %16.6f %s" % (name, m["value"], m["unit"]))
    return tally, metrics


def probe_defects(cli, report):
    """Run DEFECT_PROBES untimed; return the probes that failed for another reason."""
    odd = []
    for defect, req in DEFECT_PROBES:
        verdict = judge(req.expected, req.fmt, *call(cli, req.argv)[1:])
        shows = verdict.known == defect
        if verdict.cause is not None and not shows:
            odd.append((req.argv, verdict.cause, verdict.detail))
        report("defect probe %-22s %-9s %s" % (
            defect, "shows" if shows else "fails" if verdict.cause else "gone", " ".join(req.argv)))
    return odd


def run_workload(cli, workload, seed, seconds, trace, report):
    """Run one workload; return (correct, tally, metrics)."""
    report("workload %s seed %d seconds %g trace %d" % (workload, seed, seconds, trace))
    report("deck mix %s" % json.dumps(request_kinds(Stream(workload, seed).deck(0))))
    tally, metrics = (traced if trace else end_to_end)(cli, workload, seed, seconds, report)
    report("failures by cause %s (relative tolerance %g)" % (json.dumps(tally.causes), REL_TOL))
    for argv, verdict in tally.examples:
        report("  %s (%s): %s: %s" % (verdict.cause, verdict.known or "no known defect",
                                      " ".join(argv), verdict.detail))
    odd = probe_defects(cli, report)
    for argv, cause, detail in odd:
        report("  probe %s: %s: %s" % (cause, " ".join(argv), detail))
    return tally.failed == 0 and not odd, tally, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    if args.rss_probe:
        run_decks(cli, Stream(args.workload, args.seed), Tally(), decks=1)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return 0

    def report(line):
        print(line, flush=True)

    report("machine %s" % json.dumps(machine()))
    correct, tally, metrics = run_workload(
        cli, args.workload, args.seed, args.seconds, args.trace, report)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
