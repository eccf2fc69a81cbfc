"""Correctness checks, run after the timed rounds.

Every output of every operation is compared with the oracle in oracle.py,
which shares no code with emprank's Gram, gradient-stack or transfer-function
arithmetic, and with properties the paper proves.  No check compares against
a stored copy of an earlier output.

A check that fails is a problem and fails the run.  The two known faults are
not problems but counted failures:

(1) a pattern that ``rank_emps`` marks non-informative although its
    Jacobi-scaled rcond clears the program's cut (a unit-dependent verdict);
    in a selection study, a run rejected for it, or whose winner it changed;
(2) an ``emprank rank --format json`` call whose stdout is not JSON because
    ``note:`` lines follow the document.
"""

from __future__ import annotations

import json

import numpy as np

import emprank as ep

import oracle
import workloads as W

TIE = 1e-9  # relative trace gap of patterns the paper says tie


def tolerance(rcond):
    """Relative accuracy expected of trace(P) at a given raw rcond of M.

    The program truncates impulse responses at 1e-12, so its M is off by
    about 1e-11 in the directions that matter least; trace(P) amplifies
    that by at most the condition number.  Over n=10 chains the largest
    error seen was 3e-16/rcond; the bound leaves a factor of 300.
    """
    return 1e-9 + 1e-13 / max(rcond, 1e-300)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, text):
        self.problems.append(text)


class Network:
    """Oracle summaries of every minimal pattern of one network and profile."""

    def __init__(self, modules, profile, ref=None):
        self.n = len(modules) + 1
        self.emps = W.patterns_of(self.n, profile)
        self.ref = ref or oracle.summaries(W.reference_of(modules).information(self.emps))

    def trace(self, i):
        return self.ref[i]["trace"]

    def tol(self, i):
        return tolerance(self.ref[i]["rcond"])


def check_ranking(net, order, trace, dead, where, tally):
    """Compare one ranking (canonical order, trace by index, dead indices)
    with the oracle.  Returns (fault patterns, whether one of them beats
    the program's winner)."""
    cut = oracle.RCOND_THRESHOLD
    for i in dead:
        if net.ref[i]["rcond"] > W.CLEAN_MARGIN * cut:
            tally.problem(f"{where}: pattern {i} set aside at oracle rcond {net.ref[i]['rcond']:.3g}")
    for i in order:
        want = net.trace(i)
        if want is None or abs(trace[i] - want) > net.tol(i) * want:
            tally.problem(f"{where}: pattern {i} trace {trace[i]!r} against oracle {want!r}")
            return [], False
    for a, b in zip(order, order[1:]):
        if net.trace(a) > net.trace(b) * (1.0 + net.tol(a) + net.tol(b)):
            tally.problem(f"{where}: pattern {a} ranked before {b} against the oracle")
    best = order[0]
    floor = min(net.trace(i) for i in order)
    if net.trace(best) > floor * (1.0 + 2.0 * net.tol(best)):
        tally.problem(f"{where}: winner {best} is not the oracle's best")
    faults = [i for i in dead if net.ref[i]["scaled_rcond"] > cut]
    beaten = any(
        net.trace(i) is not None and net.trace(i) * (1.0 + net.tol(i)) < net.trace(best) for i in faults
    )
    return faults, beaten


# --------------------------------------------------------------------- rank


def check_rank(records, tally):
    first = {}
    for rec in records:
        op, res = rec.op, rec.result
        tally.attempted += 1 << (len(op.modules) - 1)
        if op.key not in first:
            net = Network(op.modules, op.profile, op.reference)
            faults, _ = check_ranking(net, res["order"], res["trace"], res["dead"], f"rank {op.key}", tally)
            first[op.key] = (res, faults)
        elif res != first[op.key][0]:
            tally.problem(f"rank {op.key}: round {rec.round_index} differs from the first round")
        tally.failed += len(first[op.key][1])


# ---------------------------------------------------------------------- cli


def load_network_file(path):
    spec = json.loads(open(path).read())
    modules = [ep.ParamModule(m["family"], tuple(m["theta"])) for m in spec["modules"]]
    d = spec["defaults"]
    return modules, ep.VarianceProfile(float(d["sigma2"]), float(d["lambda"]))


def parse_cli(stdout):
    """(rows, fault) of a ``rank --format json`` stdout; fault is True when
    the document is followed by ``note:`` lines.  Raises ValueError for
    anything else."""
    try:
        return json.loads(stdout), False
    except json.JSONDecodeError:
        pass
    lines = stdout.splitlines()
    cut = next((k for k, line in enumerate(lines) if line.startswith("note:")), None)
    if cut is None or not all(line.startswith("note:") for line in lines[cut:]):
        raise ValueError("stdout is neither JSON nor JSON followed by note lines")
    return json.loads("\n".join(lines[:cut])), True


def check_cli(records, tally):
    seen = {}
    for rec in records:
        op, res = rec.op, rec.result
        tally.attempted += 1
        where = f"cli {op.key} round {rec.round_index}"
        if res["returncode"] != 0:
            tally.problem(f"{where}: exit {res['returncode']}: {res['stderr'].strip()[-300:]}")
            continue
        try:
            rows, fault = parse_cli(res["stdout"])
        except ValueError as exc:
            tally.problem(f"{where}: {exc}")
            continue
        if fault:
            tally.failed += 1
        if op.key not in seen:
            seen[op.key] = check_cli_rows(op, rows, fault, where, tally)
        elif seen[op.key] != (rows, fault):
            tally.problem(f"{where}: output differs from the first call")


def check_cli_rows(op, rows, fault, where, tally):
    modules, profile = load_network_file(op.path)
    net = Network(modules, profile)
    labels = [e.label for e in net.emps]
    try:
        index = [labels.index(row["pattern"]) for row in rows]
        trace = {i: float(row["trace"]) for i, row in zip(index, rows)}
        logdet = {i: float(row["logdet"]) for i, row in zip(index, rows)}
    except (KeyError, ValueError) as exc:
        tally.problem(f"{where}: malformed rows: {exc}")
        return rows, fault
    if sorted(index) != list(range(len(labels))):
        tally.problem(f"{where}: rows do not cover every pattern once")
        return rows, fault
    check_ranking(net, index, trace, [], where, tally)
    for i in index:
        if abs(logdet[i] - net.ref[i]["logdet"]) > 1e-9 * max(1.0, abs(net.ref[i]["logdet"])):
            tally.problem(f"{where}: pattern {i} logdet {logdet[i]!r} against oracle")
    by_trace = min(range(len(labels)), key=net.trace)
    by_logdet = min(range(len(labels)), key=lambda i: net.ref[i]["logdet"])
    if fault != (by_trace != by_logdet):
        tally.problem(f"{where}: note lines do not match whether trace and logdet disagree")
    if op.key == "agree":
        # mirror theorem: identical modules and uniform variances make the
        # end-excited and end-measured patterns tie
        a, b = labels.index("B=1;C=2,3,4"), labels.index("B=1,2,3;C=4")
        if abs(trace[a] - trace[b]) > TIE * trace[a]:
            tally.problem(f"{where}: mirrored patterns do not tie ({trace[a]!r}, {trace[b]!r})")
    return rows, fault


# ------------------------------------------------------------------- select


def serial_outcomes(cfg):
    """Per-run (winner, runner-up ratio, worst ratio, dead, rejected) of a
    scenario, ranking each run's network directly."""
    out = []
    for r in range(cfg.runs):
        modules, profile = W.draw_run(cfg, r)
        try:
            ranking = ep.rank_emps(ep.CascadeNetwork(modules), profile, cfg.criterion)
        except (ep.NonInformativeError, ep.UnstableFilterError) as exc:
            out.append({"rejected": type(exc).__name__, "modules": modules, "profile": profile})
            continue
        out.append(
            {
                "rejected": None,
                "modules": modules,
                "profile": profile,
                "order": [e.canonical_index for e in ranking.entries],
                "trace": {e.canonical_index: e.value for e in ranking.entries},
                "dead": sorted(idx for _, idx, _ in ranking.non_informative),
                "runner_up": ranking.runner_up_ratio(),
                "worst": ranking.worst_ratio(),
            }
        )
    return out


def aggregate(cfg, outcomes):
    counts = [0] * (1 << (cfg.n - 2))
    runner, worst = [], []
    dead = 0
    for o in outcomes:
        if o["rejected"]:
            continue
        counts[o["order"][0]] += 1
        dead += len(o["dead"])
        if o["runner_up"] is not None:
            runner.append(o["runner_up"])
            worst.append(o["worst"])
    return {
        "counts": counts,
        "informative": sum(counts),
        "rejected": sum(1 for o in outcomes if o["rejected"]),
        "dead": dead,
        "runner_up": runner,
        "worst": worst,
    }


def check_scenario(op, tally):
    """Check one scenario once; returns its serial report and the number of
    its runs that fault (1) failed."""
    cfg = op.cfg
    where = f"select {op.key}"
    serial = W.report_summary(ep.run_scenario(cfg, workers=1))
    outcomes = serial_outcomes(cfg)
    if aggregate(cfg, outcomes) != serial:
        tally.problem(f"{where}: ranking each run directly does not reproduce the serial report")
    failed = 0
    for r, o in enumerate(outcomes):
        if o["rejected"] == "UnstableFilterError":
            continue
        net = Network(o["modules"], o["profile"])
        at = f"{where} run {r}"
        if o["rejected"]:
            best = max(s["scaled_rcond"] for s in net.ref)
            failed += best > oracle.RCOND_THRESHOLD
            continue
        _, beaten = check_ranking(net, o["order"], o["trace"], o["dead"], at, tally)
        failed += beaten
        if len(o["order"]) > 1:
            a, b, z = o["order"][0], o["order"][1], o["order"][-1]
            for name, hi in (("runner_up", b), ("worst", z)):
                want = net.trace(hi) / net.trace(a)
                if abs(o[name] - want) > (net.tol(a) + net.tol(hi)) * want:
                    tally.problem(f"{at}: {name} ratio {o[name]!r} against oracle {want!r}")
        if cfg.identical and cfg.variance_mode == "equal" and cfg.perturbation is None:
            check_identical_run(net, o, at, tally)
    return serial, failed


def check_identical_run(net, o, at, tally):
    # paper: on identical modules with uniform variances the balanced
    # pattern (canonical index 1 at n=4) wins, and the two mirrored
    # end-loaded patterns (0 and 3) tie, to the accuracy their
    # conditioning allows
    if o["order"][0] != 1:
        tally.problem(f"{at}: balanced pattern does not win")
    t = o["trace"]
    if 0 in t and 3 in t and abs(t[0] - t[3]) > (TIE + net.tol(0) + net.tol(3)) * t[0]:
        tally.problem(f"{at}: mirrored patterns do not tie ({t[0]!r}, {t[3]!r})")


def check_select(records, tally):
    checked = {}
    for rec in records:
        op, res = rec.op, rec.result
        tally.attempted += op.cfg.runs
        if op.key not in checked:
            checked[op.key] = check_scenario(op, tally)
        serial, failed = checked[op.key]
        if res != serial:
            tally.problem(f"select {op.key} round {rec.round_index}: differs from the serial run")
        tally.failed += failed


# ----------------------------------------------------------------- validate

PEM_Z = 6.0  # standard deviations of the sample-covariance trace allowed
PEM_BIAS = 0.05  # share of trace(P) allowed for finite-sample bias


def check_validate(records, tally):
    by_key = {}
    for rec in records:
        by_key.setdefault(rec.op.key, []).append(rec)
    for key, recs in by_key.items():
        op = recs[0].op
        Ms = W.reference_of(op.modules).information([op.emp])
        P = np.linalg.inv(Ms[0])
        want = float(np.trace(P))
        tol = tolerance(oracle.summaries(Ms)[0]["rcond"])
        empirical = {}  # calls in one round share their records
        for rec in recs:
            res = rec.result
            tally.attempted += op.replications
            tally.failed += res["failed"]
            if not res["reliable"]:
                tally.problem(f"validate {key} round {rec.round_index}: unreliable check")
            if abs(res["theoretical"] - want) > tol * want:
                tally.problem(f"validate {key}: trace(P) {res['theoretical']!r} against oracle {want!r}")
            if empirical.setdefault(rec.round_index, res["empirical"]) != res["empirical"]:
                tally.problem(f"validate {key} round {rec.round_index}: calls on the same records differ")
        # the mean of K independent sample-covariance traces, each over R
        # replications, has variance 2 tr(P^2) / ((R - 1) K) about trace(P)
        sd = np.sqrt(2.0 * np.trace(P @ P) / ((op.replications - 1) * len(empirical)))
        mean = float(np.mean(list(empirical.values())))
        if abs(mean - want) > PEM_Z * sd + PEM_BIAS * want:
            tally.problem(f"validate {key}: empirical trace {mean:.4g} outside {want:.4g} +/- {PEM_Z * sd + PEM_BIAS * want:.3g}")


CHECKS = {"rank": check_rank, "cli": check_cli, "select": check_select, "validate": check_validate}


def verify(records):
    tally = Tally()
    for kind, check in CHECKS.items():
        check([r for r in records if r.op.kind == kind], tally)
    return tally
