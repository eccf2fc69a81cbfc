#!/usr/bin/env python3
"""emprank benchmark.

Run from the repository root:

    python3 bench/run.py --workload rank --seed 1 --seconds 30 --trace 0

The benchmark imports emprank from ./src, builds the workload's inputs from
the seed, repeats whole rounds of the workload's operations for about the
given number of seconds, then checks every output against the oracle in
bench/oracle.py and the properties the paper proves.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Machine facts go to stderr.  The exit code is
0 when every check passed, 1 when one failed and 2 when the sources are
missing.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rank", "select", "validate")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
TAIL_MIN_SAMPLES = 40  # fewer samples than this give no tail
IMPORT_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="import and build the inputs, then exit")
    return p.parse_args(argv)


def measure_setup(args, root):
    """Median wall time of fresh interpreters that import emprank and build
    this workload's inputs."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def import_times(root):
    """Median cumulative import time of emprank.cli and of scipy.signal in
    fresh interpreters, from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cli, signal = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import emprank.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=170)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [s.strip() for s in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        cli.append(cumulative["emprank.cli"])
        signal.append(cumulative.get("scipy.signal", 0.0))
    return statistics.median(cli), statistics.median(signal)


def blas_facts():
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads = fn()
                    break
    except OSError:
        pass
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def machine_facts():
    import numpy
    import scipy

    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return dict(
        cores=os.cpu_count(),
        usable_cores=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas_env=env or "unset (library default)",
        **blas_facts(),
    )


def run_rounds(ops, seconds, workers, tracer=None):
    """Whole rounds for about ``seconds`` (at least MIN_ROUNDS): a round
    starts only while more than half a round's mean time is left.

    With a tracer, odd rounds are traced and even rounds are not, so the
    two can be compared for the tracing overhead; the first round, which
    warms the program's caches, is left out of that comparison, so a
    traced run has at least one more round."""
    import workloads as W

    records, round_times, traced = [], [], []
    deadline = time.perf_counter() + seconds
    least = MIN_ROUNDS + (tracer is not None)
    r = 0
    while r < least or time.perf_counter() + statistics.mean(round_times) / 2 < deadline:
        on = tracer is not None and r % 2 == 1
        if on:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for op in ops:
                dt, result = op.run(r, workers)
                records.append(W.Record(op, r, dt, result))
        finally:
            if on:
                tracer.uninstall()
        round_times.append(time.perf_counter() - t0)
        traced.append(on)
        r += 1
    return records, round_times, traced


def tail(samples):
    """The highest percentile with at least ten samples beyond it; with
    fewer than TAIL_MIN_SAMPLES samples there is no tail and the median is
    reported instead."""
    s = sorted(samples)
    if len(s) < TAIL_MIN_SAMPLES:
        return statistics.median(s)
    return s[len(s) - 11]


def rate(records, kind, amount):
    """Work done per second of busy time, over the whole run."""
    done = sum(amount(rec.op) for rec in records if rec.op.kind == kind)
    return done / sum(rec.seconds for rec in records if rec.op.kind == kind)


def end_to_end(records, setup_s):
    def times(kind):
        return [rec.seconds for rec in records if rec.op.kind == kind]

    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (setup_s, "s"),
        "rank_s": (statistics.median(times("rank")), "s"),
        "rank_tail_s": (tail(times("rank")), "s"),
        "cli_rank_s": (statistics.median(times("cli")), "s"),
        "mc_runs_per_s": (rate(records, "select", lambda op: op.cfg.runs), "runs/s"),
        "pem_fits_per_s": (rate(records, "validate", lambda op: op.replications), "fits/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


SPAN_METRICS = [
    # (metric, span, reading)
    ("lti.impulse_response_s", "lti.impulse_response", "total"),
    ("lti.impulse_response_calls", "lti.impulse_response", "calls"),
    ("lti.series_s", "lti.series", "total"),
    ("lti.series_calls", "lti.series", "calls"),
    ("cascade.network_build_s", "cascade.network_build", "total"),
    ("cascade.path_gain_calls", "cascade.path_gain", "calls"),
    ("fisher.gradient_stack_s", "fisher.gradient_stack", "total"),
    ("fisher.gradient_stack_calls", "fisher.gradient_stack", "calls"),
    ("fisher.information_matrix_self_s", "fisher.information_matrix", "self"),
    ("fisher.information_matrix_calls", "fisher.information_matrix", "calls"),
    ("ranking.rank_emps_self_s", "ranking.rank_emps", "self"),
    ("emp.enumerate_minimal_s", "emp.enumerate_minimal", "total"),
    ("montecarlo.run_scenario_self_s", "montecarlo.run_scenario", "self"),
    ("pem.simulate_s", "pem.simulate", "total"),
    ("pem.pem_fit_self_s", "pem.pem_fit", "self"),
    ("pem.lfilter_calls", "pem.lfilter", "calls"),
]
COUNT_METRICS = [
    # (metric, span whose return values it counts)
    ("lti.response_samples", "lti.impulse_response"),
    ("lti.nonconverged_responses", "lti.impulse_response"),
    ("fisher.noninformative_patterns", "fisher.information_matrix"),
    ("montecarlo.rejected_runs", "montecarlo.run_scenario"),
    ("pem.gn_iterations", "pem.pem_fit"),
]


def per_layer(tracer, round_times, traced, root):
    """Per-round span sums and counts over the traced rounds."""
    k = sum(traced)
    out = {}
    for metric, span, reading in SPAN_METRICS:
        if span in tracer.present:
            value = {"total": tracer.total, "self": tracer.self_time, "calls": tracer.calls}[reading][span]
            out[metric] = (value / k, "count/round" if reading == "calls" else "s/round")
    for metric, span in COUNT_METRICS:
        if span in tracer.present:
            out[metric] = (tracer.counts[metric] / k, "count/round")
    on = [t for t, flag in zip(round_times[1:], traced[1:]) if flag]
    off = [t for t, flag in zip(round_times[1:], traced[1:]) if not flag]
    out["trace.overhead_s"] = (statistics.median(on) - statistics.median(off), "s/round")
    cli, signal = import_times(root)
    out["cli.import_s"] = (cli, "s")
    out["cli.import_scipy_signal_s"] = (signal, "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "emprank", "__init__.py")):
        print("bench: no emprank sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    if args.setup_only:
        import workloads as W

        W.build(args.workload, args.seed, root)
        return 0

    setup_s = None if args.trace else measure_setup(args, root)

    import checks
    import tracing
    import workloads as W

    ops = W.build(args.workload, args.seed, root)
    tracer = tracing.Tracer() if args.trace else None
    workers = 1 if args.trace else W.SELECT_WORKERS
    records, round_times, traced = run_rounds(ops, args.seconds, workers, tracer)
    absent = tracer.absent if tracer else []

    tally = checks.verify(records)
    metrics = per_layer(tracer, round_times, traced, root) if tracer else end_to_end(records, setup_s)

    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, rounds=len(round_times),
                 round_s=[round(t, 3) for t in round_times], absent_layers=absent)
    print("bench: " + json.dumps(facts), file=sys.stderr)
    for text in tally.problems:
        print(f"bench: check failed: {text}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main())
